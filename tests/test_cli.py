import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from minpower import cli, exact, graph, greedy, lpbound
from minpower.cli import main
from minpower.exact import ExactResult, SearchLimits
from minpower.graph import Instance, PowerAssignment
from minpower.greedy import greedy_solve
from minpower.instances import read_instance, write_instance
from minpower.lpbound import LpError


def count_calls(monkeypatch, name, modules):
    """Route name, wherever modules bind it, through one wrapper that records
    each call's arguments; returns the list it records to."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture()
def line_instance(tmp_path):
    path = tmp_path / "line.txt"
    code = main(["gen", "family=line,n=5,eps=0.25", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture()
def polygon_instance(tmp_path):
    path = tmp_path / "poly.txt"
    code = main(["gen", "family=polygon,n=3", "--out", str(path)])
    assert code == 0
    return path


class TestGen:
    def test_line_file_written(self, line_instance):
        text = line_instance.read_text()
        assert text.startswith("# generator: family=line,n=5")
        assert "10 45" in text.splitlines()[1]

    def test_polygon_writes_witness_sidecar(self, polygon_instance):
        witness = polygon_instance.with_name(polygon_instance.name + ".witness")
        assert witness.exists()
        assert len(witness.read_text().splitlines()) == 12

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        code = main(["gen", "family=nope,n=3", "--out", str(tmp_path / "x.txt")])
        assert code == 1
        assert "unknown family" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("n=2,kappa=1e6,seed=0", "cost of edge 0-1 overflows at kappa=1000000.0"),
            ("n=30,kappa=2100,seed=0", "cost of edge 0-5 underflows to 0 at kappa=2100.0"),
            ("n=5,kappa=inf,seed=0", "kappa must be positive and finite, got inf"),
            ("n=5,kappa=nan,seed=0", "kappa must be positive and finite, got nan"),
        ],
    )
    def test_extreme_kappa_exits_1(self, tmp_path, capsys, spec, message):
        out = tmp_path / "x.txt"
        assert main(["gen", f"family=random-geometric,{spec}", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"gen: {message}\n"
        assert not out.exists()

    def test_seed_is_not_a_flag(self, tmp_path, capsys):
        # the spec's seed= field is the one way to set the seed
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "family=random-geometric,n=5", "--seed", "1", "--out", str(out)])
        assert exc.value.code == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.txt"
        assert main(["gen", "family=line,n=3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"gen: cannot write {out}: No such file or directory\n"
        assert captured.out == ""

    def test_unwritable_witness_leaves_no_instance(self, tmp_path, capsys):
        out = tmp_path / "d" / "x.txt"
        witness = tmp_path / "d" / "x.txt.witness"
        witness.mkdir(parents=True)
        assert main(["gen", "family=polygon,n=3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"gen: cannot write {witness}: Is a directory\n"
        assert captured.out == ""
        assert not out.exists()


class TestSolve:
    def test_records_output(self, line_instance, capsys):
        code = main(["solve", str(line_instance)])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["mst_power"] == 10.0
        assert record["certificates_ok"] is True
        assert record["meta"].startswith("family=line")

    def test_line20_baseline_power(self, tmp_path, capsys):
        path = tmp_path / "line20.txt"
        assert main(["gen", "family=line,n=20,eps=0.01", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["solve", str(path)]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["mst_power"] == 40.0

    def test_exact_and_lp_flags(self, line_instance, capsys):
        code = main(["solve", str(line_instance), "--exact", "--lp", "--max-exact-n", "10"])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["exact_status"] == "optimal"
        assert record["ratios"]["greedy_vs_exact"] >= 1.0 - 1e-9
        assert record["ratios"]["mst_vs_exact"] >= 1.0 - 1e-9
        assert record["ratios"]["greedy_vs_lp"] >= 1.0 - 1e-9
        assert record["lp_value"] <= record["exact_opt"] + 1e-6
        # records are self-contained: ratios re-derive from reported values
        rederived = record["greedy_power"] / record["exact_opt"]
        assert abs(record["ratios"]["greedy_vs_exact"] - rederived) <= 1e-6

    def test_exact_refused_above_cap_gives_exit_3(self, polygon_instance, capsys):
        code = main(["solve", str(polygon_instance), "--exact"])
        assert code == 3
        record = json.loads(capsys.readouterr().out.strip())
        assert record["exact_status"].startswith("skipped")

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.txt")]) == 1

    def test_unwritable_out_exits_1(self, line_instance, tmp_path, capsys):
        out = tmp_path / "missing" / "x.jsonl"
        assert main(["solve", str(line_instance), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"solve: cannot write {out}: No such file or directory\n"
        assert captured.out == ""  # found out before solving, so no record was printed

    def test_non_utf8_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# r\xe9seau\n2 1\n0 1 1.0\n")
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "latin1.txt:1: not UTF-8 text" in captured.err

    def test_overflowing_costs_exit_1(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("2 1\n0 1 1e308\n")
        assert main(["solve", str(path), "--exact", "--lp"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"solve: {path}: costs too large: the total power overflows\n"

    def test_generator_comment_is_utf8_in_any_locale(self, tmp_path):
        # under the C locale with no UTF-8 mode, open() and stdout default to
        # ASCII; records escape the comment as JSON, the table as Python does
        path = tmp_path / "u.txt"
        path.write_bytes("# generator: café\n2 1\n0 1 1.0\n".encode())
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=pythonpath)
        for fmt in ("records", "table"):
            proc = subprocess.run(
                [sys.executable, "-m", "minpower.cli", "solve", str(path), "--format", fmt],
                env=env,
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            if fmt == "records":
                assert json.loads(proc.stdout)["meta"] == "café"
            else:
                assert proc.stdout.splitlines()[0] == f"instance        {path}  (caf\\xe9)".encode()

    def test_one_lp_and_one_spanning_tree_per_instance(self, tmp_path, monkeypatch, capsys):
        # the oracle hands the CLI the LP it solved, and the greedy its tree
        lps = count_calls(monkeypatch, "lp_lower_bound", (lpbound, cli))
        trees = count_calls(monkeypatch, "minimum_spanning_tree", (graph, greedy, cli))
        path = tmp_path / "r8.txt"
        assert main(["gen", "family=random-geometric,n=8,kappa=4,seed=17", "--out", str(path)]) == 0
        assert main(["solve", str(path), "--lp"]) == 0
        assert (len(lps), len(trees)) == (1, 1)
        lps.clear()
        assert main(["solve", str(path), "--exact", "--lp"]) == 0
        assert len(lps) == 1
        lps.clear()
        # seeds 0-1 of n=6 run the oracle; n=12 is above the cap, so the CLI solves the LP
        specs = ["--spec", "family=random-geometric,n=6,kappa=2", "--spec", "family=random-geometric,n=12,kappa=1"]
        assert main(["bench", *specs, "--seeds", "0:2", "--exact", "--lp"]) == 3
        assert len(lps) == 4
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]["certificate_failures"] == 0

    def test_one_greedy_per_instance(self, tmp_path, monkeypatch):
        # the CLI hands the oracle the greedy solution it already has
        solves = count_calls(monkeypatch, "greedy_solve", (greedy, exact, cli))
        path = tmp_path / "r8.txt"
        assert main(["gen", "family=random-geometric,n=8,kappa=4,seed=17", "--out", str(path)]) == 0
        assert main(["solve", str(path), "--exact"]) == 0
        assert len(solves) == 1

    def test_records_are_deterministic(self, line_instance, tmp_path):
        out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        assert main(["solve", str(line_instance), "--lp", "--out", str(out1)]) == 0
        assert main(["solve", str(line_instance), "--lp", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_table_format(self, line_instance, capsys):
        code = main(["solve", str(line_instance), "--format", "table"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MST power" in out
        assert "certificates    ok" in out

    def test_table_shows_lp_pivots_records_do_not(self, line_instance, capsys):
        assert main(["solve", str(line_instance), "--lp", "--format", "table"]) == 0
        line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("lp bound"))
        assert re.fullmatch(r"lp bound +[0-9.]+  \(\d+ rounds, \d+ pivots\)", line)
        assert main(["solve", str(line_instance), "--lp"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["lp_rounds"] > 0
        assert not any("pivot" in key for key in record)

    def test_table_names_the_tripped_limit_records_do_not(self, tmp_path, capsys, monkeypatch):
        # the LP bound leaves this instance open, so the search runs into the limit
        path = tmp_path / "r8.txt"
        assert main(["gen", "family=random-geometric,n=8,kappa=4,seed=17", "--out", str(path)]) == 0
        monkeypatch.setattr(cli, "SearchLimits", functools.partial(SearchLimits, max_nodes=3))
        capsys.readouterr()
        assert main(["solve", str(path), "--exact", "--format", "table"]) == 3
        out = capsys.readouterr().out
        line = next(x for x in out.splitlines() if x.startswith("exact optimum"))
        assert re.fullmatch(r"exact optimum +[0-9.]+ \(inconclusive: max_nodes\)", line)
        assert main(["solve", str(path), "--exact"]) == 3
        record = json.loads(capsys.readouterr().out)
        assert record["exact_status"] == "inconclusive"
        assert not any("limit" in key for key in record)

    @pytest.mark.parametrize(
        "spec, proof",
        [("n=8,kappa=2,seed=5", "lp"), ("n=8,kappa=4,seed=17", "search")],
    )
    def test_table_names_the_proof_records_do_not(self, tmp_path, capsys, spec, proof):
        path = tmp_path / "r8.txt"
        assert main(["gen", f"family=random-geometric,{spec}", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["solve", str(path), "--exact", "--format", "table"]) == 0
        line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("exact optimum"))
        assert re.fullmatch(rf"exact optimum +[0-9.]+ \(optimal: {proof}\)", line)
        assert main(["solve", str(path), "--exact"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["exact_status"] == "optimal"
        assert not any("proof" in key for key in record)


class TestVerdict:
    @pytest.fixture()
    def r6_instance(self, tmp_path, capsys):
        path = tmp_path / "r6.txt"
        assert main(["gen", "family=random-geometric,n=6,kappa=2,seed=0", "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    @pytest.fixture()
    def lp_fails(self, monkeypatch):
        def fail(inst):
            raise LpError("no convergence")

        monkeypatch.setattr(cli, "lp_lower_bound", fail)

    def test_lp_failure_is_named_in_the_record(self, r6_instance, lp_fails, capsys):
        assert main(["solve", str(r6_instance), "--lp"]) == 2
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert record["certificates_ok"] is False
        assert record["certificate_failures"] == ["lp_bound"]
        assert captured.err == "lp bound failed: no convergence\n"

    def test_lp_failure_in_the_oracle_is_named_once(self, r6_instance, lp_fails, monkeypatch, capsys):
        # the oracle proves its optimum by search, then the CLI's own LP call fails too
        monkeypatch.setattr(lpbound, "lp_lower_bound", cli.lp_lower_bound)
        assert main(["solve", str(r6_instance), "--exact", "--lp"]) == 2
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert record["exact_status"] == "optimal"
        assert record["lp_value"] is None
        assert record["certificate_failures"] == ["lp_bound"]
        assert captured.err == "lp bound failed: no convergence\n"

    def test_lp_failure_outranks_a_skipped_oracle(self, r6_instance, lp_fails, capsys):
        assert main(["solve", str(r6_instance), "--exact", "--max-exact-n", "3", "--lp"]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["exact_status"] == "skipped: instance too large"
        assert record["certificate_failures"] == ["lp_bound"]

    def test_bench_counts_lp_failures(self, lp_fails, capsys):
        args = ["bench", "--spec", "family=random-geometric,n=5,kappa=2", "--seeds", "0:2", "--lp"]
        assert main(args) == 2
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]
        assert summary["instances"] == 2
        assert summary["certificate_failures"] == 2

    def test_bench_failure_outranks_skipped_oracles(self, lp_fails, capsys):
        args = ["bench", "--spec", "family=random-geometric,n=5,kappa=2", "--seeds", "0:2"]
        assert main(args + ["--exact", "--max-exact-n", "3"]) == 3
        capsys.readouterr()
        assert main(args + ["--exact", "--max-exact-n", "3", "--lp"]) == 2
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]
        assert summary["certificate_failures"] == 2
        assert summary["exact_not_optimal"] == 2

    def test_greedy_above_ratio_of_opt_fails(self, r6_instance, monkeypatch, capsys):
        def half_greedy(inst, limits, incumbent):
            opt = greedy_solve(inst).total_power / 2
            return ExactResult("optimal", opt, PowerAssignment((opt,) + (0.0,) * (inst.n - 1)), 0)

        monkeypatch.setattr(cli, "exact_optimum", half_greedy)
        assert main(["solve", str(r6_instance), "--exact"]) == 2
        record = json.loads(capsys.readouterr().out)
        assert "greedy_within_ratio_of_opt" in record["certificate_failures"]
        assert record["certificates_ok"] is False

    @pytest.mark.parametrize(
        "values, broken",
        [
            ((1.0, 1.5, 0.9, None), ["mst_within_opt"]),
            ((1.0, 1.5, 1.6, None), ["opt_within_greedy"]),
            ((1.0, 2.0, 1.0, None), ["greedy_within_ratio_of_opt"]),
            ((1.0, 1.5, None, 0.9), ["mst_within_lp"]),
            ((1.0, 1.5, None, 1.6), ["lp_within_greedy"]),
            ((1.0, 2.0, None, 1.0), ["greedy_within_ratio_of_lp"]),
            ((1.0, 1.5, 1.2, 1.3), ["lp_within_opt"]),
            ((1.0, 1.5, 1.2, 1.1), []),
            # the slack is relative: an LP value at the cut tolerance below
            # c(MST), or an optimum just below it, passes at large costs
            ((1e6, 1.5e6, 1e6 * (1 - 1e-10), 1e6 * (1 - 1e-7)), []),
            # and purely relative: tiny costs get no absolute slack
            ((1e-12, 1e-10, 1e-12, None), ["greedy_within_ratio_of_opt"]),
            ((1e-12, 1.5e-12, 1.2e-12, 1.3e-12), ["lp_within_opt"]),
            ((1e-12, 1.5e-12, None, 0.9e-12), ["mst_within_lp"]),
        ],
    )
    def test_each_inequality_of_the_bracket(self, values, broken):
        assert cli._bracket_failures(*values) == broken


class TestTolerance:
    @pytest.fixture()
    def r8_instance(self, tmp_path):
        # the cut tolerance 5 or nan stopped this instance's LP at 0.386859,
        # below c(MST) 0.491111
        path = tmp_path / "r8.txt"
        assert main(["gen", "family=random-geometric,n=8,kappa=2,seed=3", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("tol", ["0", "1e-7"])
    def test_tolerance_accepted(self, r8_instance, tmp_path, capsys, tol):
        # scaling every cost by 1 + tol, up to the fixed cut tolerance, scales
        # the bound by the same factor and leaves the reported 0.650795 (the
        # unrounded bound 0.65079480 is 1.5e-7 above the rounding boundary)
        scale = 1.0 + float(tol)
        inst = read_instance(str(r8_instance))
        scaled = Instance.from_edges(inst.n, [(u, v, c * scale) for u, v, c in inst.edges])
        path = tmp_path / "r8-scaled.txt"
        write_instance(scaled, str(path))
        capsys.readouterr()
        assert main(["solve", str(path), "--lp"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["c_mst"] == pytest.approx(0.491111 * scale, abs=1e-6)
        assert record["lp_value"] == 0.650795

    def test_tolerance_is_not_a_flag(self, r8_instance, capsys):
        # tol = 0 made separation return an existing cut on random-geometric
        # n=17 kappa=2 seed=1, so the cut tolerance is a fixed constant
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(r8_instance), "--lp", "--tol", "0"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments: --tol 0" in captured.err
        assert captured.out == ""


class TestVerify:
    def test_polygon_witness_passes(self, polygon_instance, capsys):
        witness = str(polygon_instance) + ".witness"
        code = main(["verify", str(polygon_instance), witness])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass" in out
        total = float(out.splitlines()[0].split()[-1])
        assert total == pytest.approx(4.0, abs=1e-9)

    def test_zero_assignment_fails_with_exit_2(self, line_instance, tmp_path, capsys):
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("".join(f"{v} 0\n" for v in range(10)))
        code = main(["verify", str(line_instance), str(zeros)])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("power", ["nan", "inf", "-1"])
    def test_hostile_power_exits_1(self, line_instance, tmp_path, capsys, power):
        path = tmp_path / "hostile.txt"
        path.write_text("".join(f"{v} {power}\n" for v in range(10)))
        code = main(["verify", str(line_instance), str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "hostile.txt:1: bad power" in captured.err

    def test_non_utf8_assignment_exits_1(self, line_instance, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0 1.0\n1 \xb5\n")
        assert main(["verify", str(line_instance), str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "latin1.txt:2: not UTF-8 text" in captured.err

    def test_duplicate_vertex_exits_1(self, line_instance, tmp_path, capsys):
        path = tmp_path / "dup.txt"
        path.write_text("".join(f"{v} 100\n" for v in range(10)) + "4 100\n")
        code = main(["verify", str(line_instance), str(path)])
        assert code == 1
        assert "dup.txt:11: duplicate vertex 4" in capsys.readouterr().err


class TestBench:
    def test_fifty_seed_sweep_with_exact(self, tmp_path, capsys):
        out = tmp_path / "bench.jsonl"
        code = main(
            [
                "bench",
                "--spec",
                "family=random-geometric,n=7,kappa=2",
                "--seeds",
                "0:50",
                "--exact",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 51  # 50 instances + summary
        for record in records[:-1]:
            assert record["exact_status"] == "optimal"
            assert 1.0 - 1e-9 <= record["ratios"]["greedy_vs_exact"] <= 1.85
        summary = records[-1]["summary"]
        assert summary["instances"] == 50
        assert summary["certificate_failures"] == 0
        assert 1.0 - 1e-9 <= summary["worst_ratios"]["greedy_vs_exact"] <= 1.85

    def test_deterministic_rows(self, tmp_path):
        args = [
            "bench",
            "--spec",
            "family=random-geometric,n=5,kappa=1",
            "--seeds",
            "3,4",
        ]
        out1, out2 = tmp_path / "b1.jsonl", tmp_path / "b2.jsonl"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_line_spec_runs_once_regardless_of_seeds(self, tmp_path):
        out = tmp_path / "line.jsonl"
        code = main(
            ["bench", "--spec", "family=line,n=4,eps=0.25", "--seeds", "0:7", "--out", str(out)]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 2  # one row + summary

    def test_spec_seed_exits_1(self, capsys):
        spec = "family=random-geometric,n=6,kappa=2,seed=5"
        assert main(["bench", "--spec", spec, "--seeds", "0:2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"bench: spec '{spec}' sets seed=; --seeds supplies the seeds\n"
        assert captured.out == ""

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "b.jsonl"
        code = main(["bench", "--spec", "family=line,n=3", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"bench: cannot write {out}: No such file or directory\n"
        assert captured.out == ""  # found out before the sweep, so no record was printed

    @pytest.mark.parametrize("seeds", ["5:2", "3:3", ","])
    def test_empty_seed_range_exits_1(self, capsys, seeds):
        code = main(["bench", "--spec", "family=random-geometric,n=5,kappa=1", "--seeds", seeds])
        assert code == 1
        captured = capsys.readouterr()
        assert "empty seed range" in captured.err
        assert captured.out == ""


HOSTILE_SPECS = [
    "family=random-geometric,n=5,n=9,seed=1,seed=2",
    "family=random-geometric,n=6,complete=flase",
    "family=line,n=3,kappa=7",
    "family=polygon,n=3,seed=5",
]


class TestHostileSpecs:
    @pytest.mark.parametrize("spec", HOSTILE_SPECS)
    def test_gen_exits_1(self, tmp_path, capsys, spec):
        out = tmp_path / "x.txt"
        code = main(["gen", spec, "--out", str(out)])
        assert code == 1
        assert "generator field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", HOSTILE_SPECS)
    def test_bench_exits_1(self, tmp_path, capsys, spec):
        out = tmp_path / "b.jsonl"
        code = main(["bench", "--spec", spec, "--seeds", "0:2", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "generator field" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestUsageErrors:
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    @pytest.mark.parametrize("extra", [["--exact"], []])
    def test_max_exact_n_below_1_exits_1(self, line_instance, capsys, value, extra):
        for argv in (
            ["solve", str(line_instance)],
            ["bench", "--spec", "family=line,n=3", "--seeds", "0:1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + extra + ["--max-exact-n", value])
            assert exc.value.code == 1
            captured = capsys.readouterr()
            assert f"argument --max-exact-n: expected an integer of at least 1, got '{value}'" in captured.err
            assert captured.out == ""

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "family=line,n=3"])
        assert exc.value.code == 1
