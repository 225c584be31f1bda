import random
from pathlib import Path

import pytest

import helpers
from minpower import lpbound
from minpower.exact import (
    SearchLimits,
    brute_force_optimum,
    exact_optimum,
    verify_assignment,
)
from minpower.graph import Instance, PowerAssignment, minimum_spanning_tree
from minpower.greedy import greedy_solve
from minpower.instances import GeneratorSpec, gen_polygon, gen_random_geometric
from minpower.lpbound import LpError, lp_lower_bound


def triangle():
    return Instance.from_edges(3, [(0, 1, 3.0), (1, 2, 4.0), (0, 2, 5.0)])


class TestExactOptimum:
    def test_two_vertices(self):
        res = exact_optimum(Instance.from_edges(2, [(0, 1, 2.0)]))
        assert res.optimal
        assert res.opt == 4.0

    def test_triangle_witness(self):
        res = exact_optimum(triangle())
        assert res.optimal
        assert res.opt == 11.0
        assert res.assignment.levels == (3.0, 4.0, 4.0)

    def test_polygon_small(self):
        inst, witness = gen_polygon(2)  # 6 points
        res = exact_optimum(inst)
        assert res.optimal
        assert res.opt <= witness.total + 1e-12

    def test_vertex_cap_enforced(self):
        inst = gen_random_geometric(10, 2.0, 1)
        with pytest.raises(ValueError, match="limit"):
            exact_optimum(inst, SearchLimits(max_vertices=9))

    def test_budget_gives_inconclusive_not_wrong(self):
        inst = gen_random_geometric(8, 4.0, 17)  # the LP bound leaves it to the search
        res = exact_optimum(inst, SearchLimits(max_nodes=3))
        assert res.status == "inconclusive"
        assert res.proof is None
        # the reported value is still a feasible upper bound
        assert verify_assignment(inst, res.assignment)
        full = exact_optimum(inst)
        assert full.optimal
        assert res.opt >= full.opt

    def test_inconclusive_names_its_limit(self):
        inst = gen_random_geometric(8, 4.0, 17)
        assert exact_optimum(inst, SearchLimits(max_nodes=3)).limit == "max_nodes"
        assert exact_optimum(inst).limit is None
        # the clock is read every 4096 nodes, and this search needs more
        res = exact_optimum(inst, SearchLimits(time_budget=1e-9))
        assert (res.status, res.limit) == ("inconclusive", "time_budget")

    def test_witness_always_verifies(self):
        rng = random.Random(61)
        for _ in range(30):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 7))
            res = exact_optimum(inst)
            assert res.optimal
            assert verify_assignment(inst, res.assignment)
            assert res.assignment.total == pytest.approx(res.opt, rel=1e-12)


class TestProof:
    def test_lp_certificate_closes_without_search(self):
        inst = gen_random_geometric(8, 2.0, 5)
        res = exact_optimum(inst)
        assert (res.status, res.proof, res.nodes) == ("optimal", "lp", 0)
        assert verify_assignment(inst, res.assignment)
        assert res.bound == lp_lower_bound(inst)  # the LP it proved with
        assert res.opt <= res.bound.value * (1 + 1e-9)

    def test_search_closes_what_the_bound_leaves_open(self):
        inst = gen_random_geometric(8, 4.0, 17)
        assert lp_lower_bound(inst).value < 0.1542  # opt is 0.155186
        res = exact_optimum(inst)
        assert (res.status, res.proof) == ("optimal", "search")
        assert res.nodes > 0
        assert res.bound == lp_lower_bound(inst)


def lp_free_corpus():
    for n in range(3, 9):
        for kappa in (1.0, 2.0, 4.0):
            for seed in range(4):
                yield f"rgg-{n}-{kappa:g}-{seed}", gen_random_geometric(n, kappa, seed)
    rng = random.Random(79)
    for i in range(30):
        # small integer costs, so optima tie between assignments
        inst = helpers.random_connected_instance(rng, 2 + i % 6, complete=bool(i % 2))
        yield f"int-{i}", inst
    yield "rgg-8-4-17", gen_random_geometric(8, 4.0, 17)


class TestIncumbent:
    """A caller's greedy solution stands in for the oracle's own greedy run."""

    def test_result_is_the_same_with_the_callers_greedy(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
        from output_digest import EXACT_LIMITS, EXACT_SPECS

        def outcome(res):
            return res.status, res.opt.hex(), res.proof, res.nodes, res.assignment

        for text in EXACT_SPECS:
            inst = GeneratorSpec.parse(text).build()[0]
            given = exact_optimum(inst, EXACT_LIMITS, incumbent=greedy_solve(inst))
            assert outcome(given) == outcome(exact_optimum(inst, EXACT_LIMITS)), text

    def test_incumbent_of_another_instance_is_refused(self):
        with pytest.raises(ValueError, match="different instance"):
            exact_optimum(triangle(), incumbent=greedy_solve(gen_random_geometric(3, 2.0, 0)))


class TestLpFreeDifferential:
    def test_matches_the_lp_free_search(self):
        for label, inst in lp_free_corpus():
            res = exact_optimum(inst)
            ref = helpers.lp_free_exact_optimum(inst)
            assert (res.status, res.opt.hex()) == (ref.status, ref.opt.hex()), label
            assert verify_assignment(inst, res.assignment), label

    def test_lp_error_falls_back_to_search(self, monkeypatch):
        def failing_lp(inst):
            raise LpError("injected")

        monkeypatch.setattr(lpbound, "lp_lower_bound", failing_lp)
        for n, kappa, seed in ((6, 2.0, 0), (7, 1.0, 3), (8, 2.0, 5), (8, 4.0, 17)):
            inst = gen_random_geometric(n, kappa, seed)
            res = exact_optimum(inst)
            ref = helpers.lp_free_exact_optimum(inst)
            assert (res.status, res.proof) == ("optimal", "search")
            assert res.opt.hex() == ref.opt.hex()
            assert res.nodes == ref.nodes  # the same search, with no bound to stop it
            assert res.bound is None


class TestVerifyAssignment:
    def test_polygon_witness(self):
        inst, witness = gen_polygon(3)
        assert verify_assignment(inst, witness)

    def test_all_zero_fails(self):
        inst = triangle()
        assert not verify_assignment(inst, PowerAssignment((0.0, 0.0, 0.0)))

    def test_max_incident_power_connects(self):
        rng = random.Random(67)
        for _ in range(20):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 8))
            levels = tuple(max(c for c, _ in inst.adj[v]) for v in range(inst.n))
            assert verify_assignment(inst, PowerAssignment(levels))


class TestBounds:
    def test_sandwich_against_greedy_and_mst(self):
        from minpower.graph import bidirect, power_of

        rng = random.Random(71)
        for _ in range(40):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 7))
            res = exact_optimum(inst)
            assert res.optimal
            sol = greedy_solve(inst)
            tree = minimum_spanning_tree(inst)
            baseline = power_of(inst, bidirect(tree)).total
            assert tree.total_cost <= res.opt + 1e-9
            assert res.opt <= sol.total_power + 1e-9
            assert res.opt <= baseline + 1e-9


class TestDifferential:
    def test_pruned_search_equals_enumeration(self):
        rng = random.Random(73)
        for i in range(40):
            n = 2 + i % 4
            inst = helpers.random_connected_instance(rng, n, complete=bool(i % 2))
            pruned = exact_optimum(inst)
            assert pruned.optimal
            naive, witness = brute_force_optimum(inst)
            assert pruned.opt == pytest.approx(naive, rel=1e-12)
            assert verify_assignment(inst, witness)
