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
        ("falsity_digest.py", ["--pairs", "5"], 0),
        ("product_digest.py", ["--pairs", "5"], 0),
        ("cli_digest.py", ["--mutants", "5"], 0),
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


def test_parse_digest_is_pinned():
    """What the front end makes of 2000 seeded strings; the digest moves when any outcome does."""
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "parse_digest.py"), "--strings", "2000", "--seed", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.stdout.strip() == (
        "2000 strings, 69 expressions, 43 contract heads, 496 declarations and 195 contracts parse, "
        "sha256 28a9887b9887c4617acdc736b7af236c5b830c003a15cb100187f1d71e5d6a48")


def test_falsity_digest_is_pinned():
    """What the falsity tiers decide on every step guard of 100 seeded pairs; the digest moves when
    any query's verdict, valuation count or witness does."""
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "falsity_digest.py"), "--pairs", "100", "--seed", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.stdout.strip() == (
        "100 pairs, 1285 queries: 527 false, 299 satisfiable, 459 unknown; 99798 valuations, "
        "sha256 052af7ab360369961fc24d8e94fae5e996acf11efa032618e87cc8b75e6f09c1")


def test_product_digest_is_pinned():
    """The products, reports and witnesses of 100 seeded pairs and the tori; the digest moves when any does."""
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "product_digest.py"), "--pairs", "100", "--seed", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.stdout.strip() == (
        "474 checks: 2470 states, 4822 transitions, 694 illegal, 1564 bad, 233 witnesses, "
        "sha256 0e823eb97733b44fb2a45aad3029acd5c825a087db2bfeb066300691d17d8c84")


def test_cli_digest_is_pinned():
    """What the command line does with 40 seeded mutants of the fixtures; the digest moves when any call does."""
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "cli_digest.py"), "--mutants", "40", "--seed", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.stdout.strip() == (
        "40 mutants, 7 parse, calls by exit code 33/24/183, "
        "sha256 d8b92dd3d3d0f9d271ddd509901b03daa07124e0dfc99035ea9fa57d70529d3f")
