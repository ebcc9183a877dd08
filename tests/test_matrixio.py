import numpy as np
import pytest

from goca.matrixio import read_labels, read_matrix, write_labels, write_matrix


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((7, 3)) * np.exp(rng.uniform(-20, 20, size=(7, 3)))
    path = tmp_path / "m.mat"
    write_matrix(path, mat)
    again = read_matrix(path)
    assert np.array_equal(mat, again)


def test_header_and_shape(tmp_path):
    path = tmp_path / "m.mat"
    write_matrix(path, np.ones((2, 4)))
    first = path.read_text().splitlines()[0]
    assert first == "2 4"


def test_rejects_bad_row_length(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("2 2\n1 2\n3\n")
    with pytest.raises(ValueError):
        read_matrix(path)


def test_rejects_non_2d():
    with pytest.raises(ValueError):
        write_matrix("/tmp/never-written.mat", np.ones(3))


def test_labels_round_trip(tmp_path):
    labels = np.array([0, 1, 2, 1, 0])
    path = tmp_path / "l.txt"
    write_labels(path, labels)
    assert np.array_equal(read_labels(path), labels)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "bad.mat"
    path.write_text(f"2 2\n1 2\n3 {value}\n")
    with pytest.raises(ValueError, match=r"bad\.mat: row 1 has a non-finite value"):
        read_matrix(path)


def test_rejects_non_numeric_value_naming_file_and_row(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("2 2\n1 2\n1 x\n")
    with pytest.raises(ValueError, match=r"bad\.mat: row 1 has a non-numeric value$"):
        read_matrix(path)


@pytest.mark.parametrize("header", ["a 2", "2", "2 2 2", "2.0 2", ""])
def test_rejects_malformed_header_naming_file(tmp_path, header):
    path = tmp_path / "bad.mat"
    path.write_text(f"{header}\n1 2\n3 4\n")
    with pytest.raises(ValueError, match=rf"bad\.mat: malformed header '{header}', expected integers"):
        read_matrix(path)


def test_rejects_rows_past_the_declared_count(tmp_path):
    path = tmp_path / "long.mat"
    path.write_text("2 2\n1 2\n3 4\n\n5 6\n")
    with pytest.raises(ValueError, match=r"long\.mat: row 3 is past the 2 rows"):
        read_matrix(path)


def test_header_size_is_never_allocated(tmp_path):
    # 1e9 x 1e9 float64 entries would need 6.94 EiB; the first short row
    # is reported instead
    path = tmp_path / "huge.mat"
    path.write_text("1000000000 1000000000\n0.1 0.2\n")
    with pytest.raises(ValueError, match=r"huge\.mat: row 0 has 2 values, expected 1000000000$"):
        read_matrix(path)


def test_trailing_blank_lines_are_accepted(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("1 2\n1 2\n\n  \n")
    assert np.array_equal(read_matrix(path), [[1.0, 2.0]])


@pytest.mark.parametrize("entry", ["x", "1.0"])
def test_rejects_non_integer_label_naming_file_and_line(tmp_path, entry):
    path = tmp_path / "labels.txt"
    path.write_text(f"0\n\n1\n{entry}\n")
    with pytest.raises(ValueError, match=rf"labels\.txt: line 4 is not an integer: '{entry}'$"):
        read_labels(path)


@pytest.mark.parametrize("entry", ["9223372036854775808", "-9223372036854775809",
                                   "99999999999999999999"])
def test_rejects_label_outside_int64_naming_file_and_line(tmp_path, entry):
    path = tmp_path / "labels.txt"
    path.write_text(f"0\n\n1\n{entry}\n")
    with pytest.raises(ValueError,
                       match=rf"labels\.txt: line 4 is outside the 64-bit integer range: '{entry}'$"):
        read_labels(path)


def test_labels_at_the_int64_bounds_are_read(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("-9223372036854775808\n9223372036854775807\n")
    assert read_labels(path).tolist() == [-(2**63), 2**63 - 1]
