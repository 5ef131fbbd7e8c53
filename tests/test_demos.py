"""The demos run end to end and print exactly their golden output.

Each demo runs in its own interpreter with an empty cache directory.
The golden files hold the output of the demos as committed; regenerate
one with ``python demos/<name>.py > tests/golden/demos/<name>.out``
after a change that is meant to alter what the demo prints.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from zerosum import cache

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_every_demo_has_a_golden_file():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.out"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_golden(demo, tmp_path):
    env = dict(os.environ)
    env[cache.ENV_VAR] = str(tmp_path)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    run = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / (demo.stem + ".out")).read_text()
