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


# the arguments of a quick run of each script under scripts/
SMOKE_ARGS = {
    "baseline_gap_sweep": ["--sizes", "2,3"],
    "output_digest": ["--max-n", "3"],
}


def test_every_script_has_a_smoke_run():
    assert sorted(path.stem for path in (ROOT / "scripts").glob("*.py")) == sorted(SMOKE_ARGS)


@pytest.mark.parametrize("script", sorted(SMOKE_ARGS))
def test_script_runs_on_tiny_input(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, f"scripts/{script}.py", *SMOKE_ARGS[script]],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
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


def test_lp_digest_is_pinned(monkeypatch):
    # value (float hex), rounds, constraints and simplex pivots of the LP bound
    # on the 92-instance corpus; a change that moves it must say why
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from output_digest import LP_SPECS, digest, lp_lines

    specs = [minpower.GeneratorSpec.parse(text) for text in LP_SPECS]
    assert len(specs) == 92
    assert digest(specs, lp_lines) == "d5f084ab30b60194"


def test_exact_digest_is_pinned(monkeypatch):
    # status and optimum (float hex) of the exact oracle on the oracle-sweep
    # corpus plus two more; the LP certificate must reach the same optimum, to
    # the bit, as the branch-and-bound search it replaced
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from output_digest import EXACT_SPECS, digest, exact_lines

    specs = [minpower.GeneratorSpec.parse(text) for text in EXACT_SPECS]
    assert len(specs) == 29
    assert digest(specs, exact_lines) == "04a60d89f312eeaf"


def test_tree_digest_is_pinned(monkeypatch):
    # every minimum spanning tree edge (endpoints and cost as float hex), in the
    # tree's order, on the greedy corpus: the value Kruskal over all edges
    # sorted by (cost, u, v) gives, which the lazy Prim must reproduce
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from output_digest import GREEDY_SPECS, digest, tree_lines

    specs = [minpower.GeneratorSpec.parse(text) for text in GREEDY_SPECS]
    assert digest(specs, tree_lines) == "7e5110494da2412e"
