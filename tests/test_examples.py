"""The runnable examples, run: each script's stdout is pinned.

Every script under ``examples/`` runs here as its own process, at the
size it ships with (a few seconds each), and must print exactly its
``tests/examples/<name>.golden``.  The service example prints its
ephemeral address on its first line; that line is masked.

Regenerate (after an *intended* change) with
``PYTHONPATH=src python -m tests.test_examples``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
GOLDENS = Path(__file__).parent / "examples"
NAMES = sorted(p.stem for p in EXAMPLES.glob("*.py"))

#: Output that differs run to run, and what a golden holds instead.
MASKS = [(re.compile(r"^service up on .*$", re.M), "service up on <address>")]


def run_example(name: str) -> str:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    for pattern, mask in MASKS:
        out = pattern.sub(mask, out)
    return out


def test_every_example_has_a_golden():
    assert NAMES == sorted(p.stem for p in GOLDENS.glob("*.golden"))


@pytest.mark.parametrize("name", NAMES)
def test_stdout_matches_golden(name):
    assert run_example(name) == (GOLDENS / f"{name}.golden").read_text()


if __name__ == "__main__":
    for name in NAMES:
        (GOLDENS / f"{name}.golden").write_text(run_example(name))
        print(f"wrote {name}.golden")
