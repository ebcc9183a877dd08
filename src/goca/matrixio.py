"""Plain-text matrix and label files shared by the command-line tools.

Matrix format: a header line ``M N`` followed by M rows of N finite
decimal numbers separated by whitespace, and nothing after them but
blank lines.  Values are written with 17 significant
digits so a write/read round trip reproduces float64 values exactly.
Label files hold one 64-bit integer per line.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["read_matrix", "write_matrix", "read_labels", "write_labels"]


def write_matrix(path: str | os.PathLike, matrix: np.ndarray) -> None:
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
    rows, cols = mat.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rows} {cols}\n")
        for row in mat:
            fh.write(" ".join(format(v, ".17g") for v in row))
            fh.write("\n")


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        try:
            rows, cols = (int(h) for h in header.split())
        except ValueError:
            raise ValueError(
                f"{path}: malformed header {header.strip()!r}, expected integers 'M N'"
            ) from None
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: matrix dimensions must be positive")
        # sized by the rows read, never by the header, which may claim any size
        out = []
        for i in range(rows):
            parts = fh.readline().split()
            if len(parts) != cols:
                raise ValueError(f"{path}: row {i} has {len(parts)} values, expected {cols}")
            try:
                out.append(np.array([float(p) for p in parts]))
            except ValueError:
                raise ValueError(f"{path}: row {i} has a non-numeric value") from None
            if not np.all(np.isfinite(out[i])):
                raise ValueError(f"{path}: row {i} has a non-finite value")
        for extra, line in enumerate(fh, start=rows):
            if line.strip():
                raise ValueError(f"{path}: row {extra} is past the {rows} rows the header declares")
    return np.stack(out)


def write_labels(path: str | os.PathLike, labels: np.ndarray) -> None:
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError("labels must be a vector")
    with open(path, "w", encoding="ascii") as fh:
        for v in arr:
            fh.write(f"{int(v)}\n")


def read_labels(path: str | os.PathLike) -> np.ndarray:
    values = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise ValueError(f"{path}: line {lineno} is not an integer: {line.strip()!r}") from None
            if not -(2**63) <= values[-1] < 2**63:
                raise ValueError(
                    f"{path}: line {lineno} is outside the 64-bit integer range: {line.strip()!r}")
    return np.asarray(values, dtype=int)
