"""The scripts run from a plain checkout, with no installed package and no PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, code",
    [
        ("verdict_audit.py", ["--pairs", "3"], 0),
        # a line through two points fits exactly, so timing noise cannot fail it
        ("closure_scaling.py", ["--sizes", "3", "5", "--repeats", "1"], 0),
        ("case_study_demo.py", [], 1),  # the case study is incompatible
        ("parse_digest.py", ["--strings", "200"], 0),
    ],
)
def test_script_runs_without_pythonpath(script, args, code, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
