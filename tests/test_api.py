"""The supported API and the experiment scripts that import it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import minpower

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in minpower.__all__ if not hasattr(minpower, name)]
    assert not missing
    assert len(set(minpower.__all__)) == len(minpower.__all__)


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/baseline_gap_sweep.py", "--sizes", "2,3"],
        ["scripts/ratio_experiment.py", "--count", "2", "--nmax", "5", "--lp"],
        ["scripts/output_digest.py", "--max-n", "3"],
    ],
    ids=["baseline_gap_sweep", "ratio_experiment", "output_digest"],
)
def test_script_runs_on_tiny_input(argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_greedy_digest_is_pinned(monkeypatch):
    # every greedy trace entry and total on the 60-instance corpus, as float
    # hex; a change to the greedy's output, however small, moves this digest
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from output_digest import GREEDY_SPECS, digest, greedy_lines

    specs = [minpower.GeneratorSpec.parse(text) for text in GREEDY_SPECS]
    assert len(specs) == 60
    assert digest(specs, greedy_lines) == "a00cefe9d1d3f340"


def test_exact_digest_is_pinned(monkeypatch):
    # status and optimum (float hex) of the exact oracle on the oracle-sweep
    # corpus plus two more; the LP certificate must reach the same optimum, to
    # the bit, as the branch-and-bound search it replaced
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from output_digest import EXACT_SPECS, digest, exact_lines

    specs = [minpower.GeneratorSpec.parse(text) for text in EXACT_SPECS]
    assert len(specs) == 29
    assert digest(specs, exact_lines) == "04a60d89f312eeaf"
