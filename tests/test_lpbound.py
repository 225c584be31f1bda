import itertools
import math
import random

import numpy as np
import pytest
from scipy.optimize import linprog

import helpers
from helpers import cut_load, enters_cut
from minpower import lpbound
from minpower.exact import exact_optimum
from minpower.graph import Instance, minimum_spanning_tree
from minpower.greedy import greedy_solve
from minpower.instances import gen_line, gen_random_geometric
from minpower.lpbound import lp_lower_bound, most_violated_cut, violated_cuts
from minpower.stars import enumerate_stars, Star


def triangle():
    return Instance.from_edges(3, [(0, 1, 3.0), (1, 2, 4.0), (0, 2, 5.0)])


def highs_master(costs, rows):
    """Independent oracle: minimize costs . y, y >= 0, each row's stars summing to >= 1."""
    a_ub = np.zeros((len(rows), len(costs)))
    for i, row in enumerate(rows):
        a_ub[i, sorted(row)] = -1.0
    res = linprog(
        costs, A_ub=a_ub, b_ub=-np.ones(len(rows)), bounds=[(0, None)] * len(costs), method="highs"
    )
    assert res.success
    return float(res.fun)


def full_cut_lp(inst):
    """Independent oracle: solve the bound over all 2^n - 2 cuts with scipy."""
    stars = enumerate_stars(inst)
    n = inst.n
    rows = []
    for mask in range(1, (1 << n) - 1):
        subset = frozenset(v for v in range(n) if mask >> v & 1)
        rows.append([j for j, s in enumerate(stars) if enters_cut(s, subset)])
    return highs_master([s.radius for s in stars], rows)


class TestLowerBound:
    def test_two_vertices_forced(self):
        value = lp_lower_bound(Instance.from_edges(2, [(0, 1, 1.5)])).value
        assert value == pytest.approx(3.0, abs=1e-9)

    def test_triangle_golden(self):
        # frozen after cross-checking against the full 2^n - 2 cut LP: the
        # relaxation is tight on the triangle and matches the optimum 11
        inst = triangle()
        frac = lp_lower_bound(inst)
        assert frac.value == pytest.approx(11.0, abs=1e-7)
        assert frac.value == pytest.approx(full_cut_lp(inst), abs=1e-7)

    def test_matches_full_lp_on_random_instances(self):
        rng = random.Random(79)
        for i in range(15):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 5), complete=bool(i % 2))
            lazy = lp_lower_bound(inst).value
            assert lazy == pytest.approx(full_cut_lp(inst), abs=1e-6)

    def test_line_bracketing(self):
        inst = gen_line(3, 0.25)
        tree = minimum_spanning_tree(inst)
        frac = lp_lower_bound(inst)
        res = exact_optimum(inst)
        assert res.optimal
        assert tree.total_cost - 1e-6 <= frac.value <= res.opt + 1e-6

    def test_weights_satisfy_all_cuts(self):
        rng = random.Random(83)
        for _ in range(10):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 6))
            frac = lp_lower_bound(inst)
            load, subset = helpers.exhaustive_min_cut_load(inst, frac.weights)
            assert load >= 1.0 - 1e-6, (subset, load)

    def test_single_vertex(self):
        assert lp_lower_bound(Instance.from_edges(1, [])).value == 0.0

    def test_pivot_count_repeats(self):
        inst = gen_random_geometric(12, 1.0, 5)
        first = lp_lower_bound(inst)
        second = lp_lower_bound(inst)
        assert first.pivots > 0
        assert (second.pivots, second.rounds) == (first.pivots, first.rounds)


class TestWorkCounters:
    """Rounds, cuts and pivots are deterministic, so they can be compared across
    machines; the values stay within 1e-9 of those of the master that added
    only the most violated cut per round and factored every basis afresh.
    Separation adds both minimum cuts of each max-flow, the one nearest the
    source and the one nearest the sink, which took (40, 0) from 15 rounds to
    5, (60, 2) from 16 to 4 and (80, 1) from 58 to 5, with the same values."""

    @pytest.mark.parametrize(
        "n,seed,counters,value",
        [
            (40, 0, (5, 156, 107), "0x1.58f7c7616ce98p-1"),
            (60, 2, (4, 232, 199), "0x1.36b5fb0f77f95p-1"),
            (80, 1, (5, 326, 428), "0x1.3cea1e2ce20eep-1"),
        ],
    )
    def test_counters_are_pinned(self, n, seed, counters, value):
        frac = lp_lower_bound(gen_random_geometric(n, 2.0, seed))
        assert (frac.rounds, frac.constraints, frac.pivots) == counters
        assert frac.value == pytest.approx(float.fromhex(value), rel=1e-9, abs=0.0)


class TestSteepKappa:
    """At kappa = 20 most scaled star costs lie far below 1e-9, so ratio-test
    ties must be relative to the least ratio: an absolute slack entered
    columns that were not minimum-ratio and pushed the value above opt."""

    @pytest.mark.parametrize("n,seed", [(8, 2), (8, 3), (9, 11)])
    def test_value_is_a_bound_and_the_oracle_is_exact(self, n, seed):
        inst = gen_random_geometric(n, 20.0, seed)
        reference = helpers.lp_free_exact_optimum(inst)
        assert reference.optimal
        # the LP is tight here, so only rounding may put it above opt; the
        # absolute slack overshot by 1.2e-5 to 9.6e-4 relative
        assert lp_lower_bound(inst).value <= reference.opt * (1 + 1e-12)
        assert exact_optimum(inst).opt == reference.opt


class TestScaleFree:
    """Scaling every cost by 2^k is exact in floating point, so it must scale
    each solver's output exactly and change nothing else; tolerances that
    are absolute in cost units break this at small scales."""

    @pytest.mark.parametrize("k", [-600, -40, 40, 600])
    @pytest.mark.parametrize("n,kappa,seed", [(6, 1.0, 1), (8, 2.0, 0), (9, 2.0, 0), (9, 4.0, 1)])
    def test_power_of_two_scaling_commutes(self, n, kappa, seed, k):
        inst = gen_random_geometric(n, kappa, seed)
        scaled = Instance.from_edges(inst.n, [(u, v, math.ldexp(c, k)) for u, v, c in inst.edges])

        frac, frac_k = lp_lower_bound(inst), lp_lower_bound(scaled)
        assert frac_k.value == math.ldexp(frac.value, k)
        assert (frac_k.rounds, frac_k.constraints, frac_k.pivots) == (
            frac.rounds,
            frac.constraints,
            frac.pivots,
        )
        assert frac_k.weights == {(v, math.ldexp(r, k)): w for (v, r), w in frac.weights.items()}

        res, res_k = exact_optimum(inst), exact_optimum(scaled)
        assert (res_k.status, res_k.proof, res_k.nodes) == (res.status, res.proof, res.nodes)
        assert res_k.opt == math.ldexp(res.opt, k)
        assert res_k.assignment.levels == tuple(math.ldexp(p, k) for p in res.assignment.levels)

        sol, sol_k = greedy_solve(inst), greedy_solve(scaled)
        assert sol_k.total_power == math.ldexp(sol.total_power, k)
        assert [(e.star.center, e.star.radius, e.gain) for e in sol_k.trace] == [
            (e.star.center, math.ldexp(e.star.radius, k), math.ldexp(e.gain, k)) for e in sol.trace
        ]


class TestWarmMaster:
    """The master keeps its basis across rounds; HiGHS re-solves each row set cold."""

    @pytest.mark.parametrize(
        "n,kappa,seed",
        [
            (10, 1.0, 0),
            (11, 2.0, 1),
            (12, 4.0, 2),
            (13, 1.0, 3),
            (14, 2.0, 4),
            (20, 1.0, 2),
            (8, 20.0, 2),
            (9, 20.0, 11),
            (14, 20.0, 2),
        ],
    )
    def test_every_round_matches_highs(self, monkeypatch, n, kappa, seed):
        rows, values = [], []
        add_row, solve = lpbound._Master.add_row, lpbound._Master.solve

        def recording_add_row(master, row):
            rows.append(frozenset(np.flatnonzero(row)))
            add_row(master, row)

        def recording_solve(master):
            y, value = solve(master)
            # the master solves for costs scaled by a power of two; undo it
            values.append((len(rows), value * max(costs) / master.costs.max()))
            return y, value

        monkeypatch.setattr(lpbound._Master, "add_row", recording_add_row)
        monkeypatch.setattr(lpbound._Master, "solve", recording_solve)
        inst = gen_random_geometric(n, kappa, seed)
        costs = [s.radius for s in enumerate_stars(inst)]
        frac = lp_lower_bound(inst)
        assert len(values) == frac.rounds > 1
        assert frac.constraints == len(rows)
        if kappa < 20:
            scale, tolerance = 1.0, {"abs": 1e-7}
        else:
            # the costs span 1e-36 to about 2 and the value is near 1e-8, under HiGHS's
            # absolute tolerances: give it costs over c(MST) and compare relatively
            scale, tolerance = minimum_spanning_tree(inst).total_cost, {"rel": 1e-7, "abs": 0.0}
        scaled = [c / scale for c in costs]
        for count, value in values:
            expected = highs_master(scaled, rows[:count]) * scale
            assert value == pytest.approx(expected, **tolerance)
        assert frac.value == pytest.approx(highs_master(scaled, rows) * scale, **tolerance)

    @pytest.mark.parametrize("n,kappa,seed,complete", [(10, 1.0, 0, True), (12, 2.0, 3, False)])
    def test_rows_match_enters_cut(self, monkeypatch, n, kappa, seed, complete):
        # the master's incidence rows against enters_cut, star by star, for
        # the seed cuts and every separated subset in the order they arrive
        rows, separated = [], []
        add_row, separate = lpbound._Master.add_row, lpbound._sweep

        def recording_add_row(master, row):
            rows.append(frozenset(np.flatnonzero(row).tolist()))
            add_row(master, row)

        def recording_separate(*args):
            cuts = separate(*args)
            separated.extend(cut.subset for cut in cuts)
            return cuts

        monkeypatch.setattr(lpbound._Master, "add_row", recording_add_row)
        monkeypatch.setattr(lpbound, "_sweep", recording_separate)
        inst = gen_random_geometric(n, kappa, seed, complete=complete)
        lp_lower_bound(inst)
        stars = enumerate_stars(inst)
        everyone = frozenset(range(n))
        seeds = [x for v in range(n) for x in (frozenset((v,)), everyone - {v})]
        expected = []
        for subset in seeds + separated:
            row = frozenset(j for j, s in enumerate(stars) if enters_cut(s, subset))
            if row not in expected:
                expected.append(row)
        assert rows == expected


class TestIncidence:
    def test_rows_are_the_leaves(self):
        for inst in helpers.star_corpus():
            stars = enumerate_stars(inst)
            leaf, centers = lpbound._incidence(inst, [(s.center, s.radius) for s in stars])
            assert leaf.shape == (len(stars), inst.n)
            assert [frozenset(np.flatnonzero(row).tolist()) for row in leaf] == [
                s.leaves for s in stars
            ]
            assert centers.tolist() == [s.center for s in stars]


class TestMasterFailures:
    def test_singular_basis_is_lp_error(self):
        master = lpbound._Master(np.array([1.0, 2.0]))
        master.add_row(np.array([True, True]))
        master.add_row(np.array([True, False]))
        master.basis = [0, 0]  # star 0 basic in both rows
        master.updates = lpbound._REFACTOR_PIVOTS  # so solve() factors the basis afresh
        with pytest.raises(lpbound.LpError, match="singular basis"):
            master.solve()

    def test_row_without_stars_is_lp_error(self):
        master = lpbound._Master(np.array([1.0, 2.0]))
        master.add_row(np.array([False, False]))
        with pytest.raises(lpbound.LpError, match="infeasible"):
            master.solve()


class TestSeparation:
    def test_zero_weights_violated(self):
        inst = triangle()
        violation = most_violated_cut(inst, {})
        assert violation is not None
        assert violation.load == 0.0

    def test_integral_solution_feasible(self):
        # weight 1 on every vertex's solution star covers all cuts
        rng = random.Random(89)
        for _ in range(10):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 7))
            sol = greedy_solve(inst)
            weights = {
                (v, sol.powers[v]): 1.0 for v in range(inst.n) if sol.powers[v] > 0.0
            }
            assert most_violated_cut(inst, weights) is None

    def test_soundness_of_reported_cuts(self):
        rng = random.Random(97)
        for _ in range(30):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 9))
            stars = enumerate_stars(inst)
            weights = {}
            for s in stars:
                if rng.random() < 0.3:
                    weights[(s.center, s.radius)] = round(rng.uniform(0.05, 0.8), 3)
            violation = most_violated_cut(inst, weights)
            support = [
                (s, weights[(s.center, s.radius)])
                for s in stars
                if (s.center, s.radius) in weights
            ]
            if violation is not None:
                direct = cut_load(support, violation.subset)
                assert direct == pytest.approx(violation.load, abs=1e-9)
                assert direct < 1.0

    def test_every_swept_cut_is_violated_once_and_sorted(self):
        rng = random.Random(107)
        for _ in range(30):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 9))
            stars = enumerate_stars(inst)
            weights = {}
            for s in stars:
                if rng.random() < 0.3:
                    weights[(s.center, s.radius)] = round(rng.uniform(0.05, 0.8), 3)
            support = [
                (s, weights[(s.center, s.radius)])
                for s in stars
                if (s.center, s.radius) in weights
            ]
            cuts = violated_cuts(inst, weights)
            subsets = [cut.subset for cut in cuts]
            assert len(set(subsets)) == len(subsets)
            assert [(c.load, sorted(c.subset)) for c in cuts] == sorted(
                (c.load, sorted(c.subset)) for c in cuts
            )
            for cut in cuts:
                assert 0 < len(cut.subset) < inst.n
                assert cut_load(support, cut.subset) == pytest.approx(cut.load, abs=1e-9)
                assert cut.load < 1.0 - 1e-7
            assert most_violated_cut(inst, weights) == (cuts[0] if cuts else None)

    def test_both_minimum_cuts_of_each_flow_are_reported(self):
        # the sweep's max-flows run from 0 to t and from t to 0; each one below
        # 1 yields its largest and its smallest least-load subset, found here
        # by enumeration, and nothing else is reported
        rng = random.Random(127)
        differ = 0
        for _ in range(20):
            inst = helpers.random_connected_instance(rng, rng.randint(3, 7))
            stars = enumerate_stars(inst)
            weights = {
                (s.center, s.radius): rng.randint(1, 8) / 16 for s in stars if rng.random() < 0.3
            }
            support = [
                (s, weights[s.center, s.radius]) for s in stars if (s.center, s.radius) in weights
            ]
            expected = set()
            for t in range(1, inst.n):
                for source, sink in ((0, t), (t, 0)):
                    load, front, back = helpers.extreme_min_cuts(inst, weights, source, sink)
                    if load < 1.0 - 1e-7:
                        expected |= {front, back}
                        differ += front != back
            cuts = violated_cuts(inst, weights)
            assert {cut.subset for cut in cuts} == expected
            for cut in cuts:
                assert cut_load(support, cut.subset) == cut.load
        assert differ > 0

    def test_agrees_with_exhaustive_enumeration(self):
        rng = random.Random(101)
        for _ in range(30):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 9))
            stars = enumerate_stars(inst)
            weights = {}
            for s in stars:
                if rng.random() < 0.4:
                    weights[(s.center, s.radius)] = round(rng.uniform(0.1, 1.1), 3)
            violation = most_violated_cut(inst, weights)
            best_load, _ = helpers.exhaustive_min_cut_load(inst, weights)
            if best_load < 1.0 - 1e-7:
                assert violation is not None
                assert violation.load == pytest.approx(best_load, abs=1e-9)
            else:
                assert violation is None


def random_network(rng):
    """Arcs (u, v, capacity) on at most 9 nodes: general networks with
    antiparallel arcs and zero capacities, or the star-shaped networks that
    separation builds (vertex -> star node -> leaves, the last effectively
    uncapacitated)."""
    if rng.random() < 0.5:
        n = rng.randint(2, 9)
        arcs = []
        for u, v in itertools.permutations(range(n), 2):
            if rng.random() < 0.4:
                arcs.append((u, v, 0.0 if rng.random() < 0.2 else rng.uniform(0.01, 2.0)))
        return n, arcs
    vertices = rng.randint(2, 5)
    stars = rng.randint(1, 9 - vertices)
    arcs = []
    for k in range(stars):
        center = rng.randrange(vertices)
        arcs.append((center, vertices + k, 0.0 if rng.random() < 0.2 else rng.uniform(0.01, 1.0)))
        others = [v for v in range(vertices) if v != center]
        for leaf in rng.sample(others, rng.randint(1, len(others))):
            arcs.append((vertices + k, leaf, vertices + 1.0))
    return vertices + stars, arcs


def cut_capacity(arcs, side):
    return sum(c for u, v, c in arcs if u in side and v not in side)


def brute_force_min_cut(n, arcs, s, t):
    others = [v for v in range(n) if v not in (s, t)]
    return min(
        cut_capacity(arcs, {s, *extra})
        for r in range(len(others) + 1)
        for extra in itertools.combinations(others, r)
    )


class TestFlowNetwork:
    """The separation's max-flow against a brute-force minimum s-t cut."""

    def test_value_and_cut_match_brute_force(self):
        rng = random.Random(211)
        for _ in range(400):
            n, arcs = random_network(rng)
            net = lpbound._FlowNetwork(n)
            for u, v, c in arcs:
                net.add_edge(u, v, c)
            capacities = net.cap[:]
            s, t = rng.sample(range(n), 2)
            value, side = net.max_flow(s, t)
            assert value == pytest.approx(brute_force_min_cut(n, arcs, s, t), abs=1e-9)
            assert s in side and t not in side
            assert cut_capacity(arcs, side) == pytest.approx(value, abs=1e-9)
            net.cap[:] = capacities
            assert net.max_flow(s, t) == (value, side)

    def test_back_cut_is_a_minimum_cut_inside_the_front_cut(self):
        rng = random.Random(223)
        for _ in range(400):
            n, arcs = random_network(rng)
            net = lpbound._FlowNetwork(n)
            for u, v, c in arcs:
                net.add_edge(u, v, c)
            s, t = rng.sample(range(n), 2)
            value, side = net.max_flow(s, t)
            back = net.sink_side(t)
            assert t in back and s not in back
            assert back.isdisjoint(side)  # inside the front cut's sink side
            source_side = set(range(n)) - back
            assert cut_capacity(arcs, source_side) == pytest.approx(value, abs=1e-9)
            assert value == pytest.approx(brute_force_min_cut(n, arcs, s, t), abs=1e-9)


class TestCrossingStarPairs:
    def test_tree_edge_fact_pair(self):
        # for each tree edge, the two stars grown from its endpoints with the
        # edge's own cost both cover the edge, so half weights sum to exactly 1,
        # and each one enters the cut on the opposite side of the edge
        rng = random.Random(103)
        for _ in range(15):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 7))
            tree = minimum_spanning_tree(inst)
            for idx, (u, v, c) in enumerate(tree.edges):
                su = Star(u, c, frozenset(x for cc, x in inst.adj[u] if cc <= c))
                sv = Star(v, c, frozenset(x for cc, x in inst.adj[v] if cc <= c))
                weight = sum(
                    0.5 for s in (su, sv) if idx in helpers.pairwise_cover(tree, s)
                )
                assert weight == 1.0
                # sides of the tree split at this edge
                side_u = _component_side(tree, idx, u)
                side_v = frozenset(range(inst.n)) - side_u
                assert enters_cut(su, side_v)
                assert enters_cut(sv, side_u)


def _component_side(tree, removed_edge, root):
    adj = [[] for _ in range(tree.n)]
    for idx, (u, v, _) in enumerate(tree.edges):
        if idx != removed_edge:
            adj[u].append(v)
            adj[v].append(u)
    seen = {root}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)
