"""Golden outputs: byte-for-byte parity of the command line at ``golden/small.cfg``.

``ablate.csv`` is ``goca ablate --seeds 1`` and ``train_<mode>_metrics.csv``
the ``metrics.csv`` of ``goca train --mode <mode>``; ``verify_seed0.txt``,
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
COMMANDS = {"ablate.csv": ["ablate", "--seeds", "1"]} | {
    f"train_{mode}_metrics.csv": ["train", "--mode", mode] for mode in MODES
}


def _fresh(name: str, tmp: Path) -> bytes:
    """The output that golden file ``name`` pins, from a run into ``tmp``."""
    out = tmp / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*COMMANDS[name], "--config", str(GOLDEN / "small.cfg"), "--out", str(out)]) == 0
    return (out / "metrics.csv" if out.is_dir() else out).read_bytes()


@pytest.mark.parametrize("name", COMMANDS)
def test_matches_golden(tmp_path, name):
    assert _fresh(name, tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in COMMANDS:
            (GOLDEN / name).write_bytes(_fresh(name, Path(tmp)))
    with contextlib.redirect_stdout(io.StringIO()) as verify_out:
        main(["verify", "--seed", "0"])
    (GOLDEN / "verify_seed0.txt").write_text(verify_out.getvalue())
