"""Golden outputs: byte-for-byte parity of the command line at ``golden/small.cfg``.

``ablate.csv`` is ``goca ablate --seeds 1`` and ``train_<mode>_metrics.csv``
the ``metrics.csv`` of ``goca train --mode <mode>``.  ``eval_metrics.csv``
and ``eval_stdout.txt`` are the ``--metrics`` CSV and the stdout of ``goca
eval`` on the raw view B of the ``gen-data --seed 0`` set, with retrieval
queries from view B of the ``gen-data --seed 1`` set.  ``verify_seed0.txt``,
the stdout of ``goca verify --seed 0``, is compared by
``test_cli.TestVerifyAndConfig.test_verify_passes``.  A change meant to
move these outputs regenerates all of them with

    PYTHONPATH=src python tests/test_golden.py

and records the diff with its reason; an unexplained difference is a
regression, not a reason to regenerate.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from goca.cli import main
from goca.ssl_engine import MODES

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = str(GOLDEN / "small.cfg")
COMMANDS = {"ablate.csv": ["ablate", "--seeds", "1"]} | {
    f"train_{mode}_metrics.csv": ["train", "--mode", mode] for mode in MODES
}


def _fresh(name: str, tmp: Path) -> bytes:
    """The output that golden file ``name`` pins, from a run into ``tmp``."""
    out = tmp / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*COMMANDS[name], "--config", CONFIG, "--out", str(out)]) == 0
    return (out / "metrics.csv" if out.is_dir() else out).read_bytes()


def _fresh_eval(tmp: Path) -> dict[str, bytes]:
    """The outputs of the ``eval_*`` golden files, from a run into ``tmp``."""
    data = {seed: tmp / f"data_{seed}" for seed in ("0", "1")}
    with contextlib.redirect_stdout(io.StringIO()):
        for seed, out in data.items():
            assert main(["gen-data", "--config", CONFIG, "--seed", seed, "--out", str(out)]) == 0
    metrics = tmp / "eval_metrics.csv"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main([
            "eval", "--features", str(data["0"] / "view_b.mat"),
            "--labels", str(data["0"] / "labels.txt"),
            "--queries", str(data["1"] / "view_b.mat"),
            "--query-labels", str(data["1"] / "labels.txt"),
            "--recall-k", "5", "--metrics", str(metrics),
        ]) == 0
    return {"eval_metrics.csv": metrics.read_bytes(), "eval_stdout.txt": stdout.getvalue().encode()}


@pytest.mark.parametrize("name", COMMANDS)
def test_matches_golden(tmp_path, name):
    assert _fresh(name, tmp_path) == (GOLDEN / name).read_bytes()


def test_eval_matches_golden(tmp_path):
    for name, fresh in _fresh_eval(tmp_path).items():
        assert fresh == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in COMMANDS:
            (GOLDEN / name).write_bytes(_fresh(name, Path(tmp)))
        for name, fresh in _fresh_eval(Path(tmp)).items():
            (GOLDEN / name).write_bytes(fresh)
    with contextlib.redirect_stdout(io.StringIO()) as verify_out:
        main(["verify", "--seed", "0"])
    (GOLDEN / "verify_seed0.txt").write_text(verify_out.getvalue())
