import math
import random

import pytest

import helpers
from minpower.exact import exact_optimum
from minpower.graph import Instance, bidirect, minimum_spanning_tree, power_of
from minpower.greedy import (
    Solution,
    _precover_zero_edges,
    certify,
    greedy_solve,
    ratio_bound,
    select_best_star,
)
from minpower.instances import GeneratorSpec, gen_line, gen_random_geometric
from minpower.lpbound import lp_lower_bound
from minpower.stars import CoverState, apply_star, enumerate_stars, marginal_gain


def triangle():
    return Instance.from_edges(3, [(0, 1, 3.0), (1, 2, 4.0), (0, 2, 5.0)])


class TestGreedySolve:
    def test_two_vertices_forced(self):
        sol = greedy_solve(Instance.from_edges(2, [(0, 1, 1.5)]))
        assert sol.total_power == 3.0
        assert sol.arcs == {(0, 1), (1, 0)}

    def test_triangle(self):
        inst = triangle()
        sol = greedy_solve(inst)
        from minpower.graph import is_strongly_connected

        assert is_strongly_connected(inst, sol.arcs)
        assert sol.total_power <= 2 * 7.0
        # recorded value: the greedy actually matches the optimum here
        assert sol.total_power == 11.0

    def test_line_improves_on_mst_baseline(self):
        inst = gen_line(20, 0.01)
        baseline = power_of(inst, bidirect(minimum_spanning_tree(inst))).total
        assert baseline == 40.0
        sol = greedy_solve(inst)
        assert sol.tree_cost <= sol.total_power < baseline

    def test_single_vertex(self):
        sol = greedy_solve(Instance.from_edges(1, []))
        assert sol.total_power == 0.0
        assert sol.arcs == frozenset()

    def test_zero_cost_edges_precovered(self):
        inst = Instance.from_edges(3, [(0, 1, 0.0), (1, 2, 2.0), (0, 2, 3.0)])
        sol = greedy_solve(inst)
        from minpower.graph import is_strongly_connected

        assert is_strongly_connected(inst, sol.arcs)
        zero_picks = [e for e in sol.trace if e.star.radius == 0.0]
        assert zero_picks, "zero-cost tree edge should be covered by a radius-0 star"
        assert certify(sol).all_passed


class TestSelectBestStar:
    def test_ratio_argmax_example(self):
        inst = Instance.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        state = CoverState(inst, minimum_spanning_tree(inst))
        star, gain = select_best_star(inst, state)
        assert (star.center, star.radius) == (1, 2.0)
        assert star.leaves == frozenset({0, 2})
        assert gain == 3.0

    def test_matches_bruteforce_argmax(self):
        rng = random.Random(37)
        for _ in range(60):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 8))
            tree = minimum_spanning_tree(inst)
            stars = enumerate_stars(inst)
            state = helpers.replay_state(
                inst, tree, rng.sample(stars, rng.randrange(len(stars)))
            )
            if state.all_covered:
                continue
            best = None
            for s in stars:  # same order, same tie-breaking as the scan
                gain, _ = marginal_gain(state, s)
                if gain <= 0.0:
                    continue
                ratio = math.inf if s.radius == 0.0 else gain / s.radius
                if best is None or ratio > best[0] or (ratio == best[0] and gain > best[1]):
                    best = (ratio, gain, s)
            star, gain = select_best_star(inst, state)
            assert best is not None
            assert star == best[2]
            assert gain == pytest.approx(best[1], rel=1e-12)

    def test_error_when_everything_covered(self):
        inst = triangle()
        tree = minimum_spanning_tree(inst)
        state = helpers.replay_state(inst, tree, enumerate_stars(inst))
        with pytest.raises(RuntimeError, match="covered"):
            select_best_star(inst, state)


def _picks(inst, select):
    """Run the greedy loop with the given selector; (center, radius, gain) per pick."""
    state = CoverState(inst, minimum_spanning_tree(inst))
    _precover_zero_edges(state)
    picks = []
    while not state.all_covered:
        star, gain = select(inst, state)
        picks.append((star.center, star.radius.hex(), gain.hex()))
        _, new_arcs = marginal_gain(state, star)
        apply_star(state, star, new_arcs)
    return picks


def _differential_instances():
    for n in (1, 3, 10, 25, 40):
        for eps in (0.5, 0.25, 0.01, 2.0**-7):
            yield gen_line(n, eps)
    rng = random.Random(61)
    for i in range(120):
        yield helpers.random_connected_instance(rng, rng.randint(2, 14), complete=bool(i % 2))
    for n, kappa, seed in ((12, 2.0, 0), (30, 1.0, 1), (40, 2.0, 2), (60, 4.0, 3)):
        yield gen_random_geometric(n, kappa, seed)
        yield gen_random_geometric(n, kappa, seed, complete=False)


class TestLazySelection:
    """The lazy heap must pick exactly what the eager full scan picks."""

    def test_traces_bit_identical_to_eager_scan(self):
        for inst in _differential_instances():
            assert _picks(inst, select_best_star) == _picks(inst, helpers.eager_select_best_star)

    def test_reused_state_with_arbitrary_stars_between_calls(self):
        rng = random.Random(67)
        cases = [helpers.random_connected_instance(rng, rng.randint(3, 12)) for _ in range(40)]
        cases += [gen_line(12, 0.25), gen_random_geometric(25, 2.0, 5, complete=False)]
        # long root paths, and gains spanning many orders of magnitude
        cases += [gen_line(60, 2.0**-7), gen_random_geometric(30, 20.0, 4)]
        for inst in cases:
            state = CoverState(inst, minimum_spanning_tree(inst))
            stars = enumerate_stars(inst)
            while not state.all_covered:
                assert state.links() == helpers.quotient_links(state, state.label[0])
                star, gain = select_best_star(inst, state)
                eager_star, eager_gain = helpers.eager_select_best_star(inst, state)
                assert star == eager_star
                assert gain.hex() == eager_gain.hex()
                # a random star, often not the greedy pick and sometimes useless
                other = rng.choice(stars)
                other_gain, new_arcs = marginal_gain(state, other)
                oracle_gain, oracle_arcs = helpers.center_rooted_gain(state, other)
                assert other_gain.hex() == oracle_gain.hex()
                assert new_arcs == oracle_arcs
                apply_star(state, other, new_arcs)

    def test_deep_quotient_trees_and_steep_costs(self):
        # the line family keeps long root paths in the quotient tree, and at
        # kappa = 20 the gains span many orders of magnitude
        cases = [gen_line(60, 2.0**-7), gen_line(30, 0.5)]
        cases += [gen_random_geometric(n, 20.0, seed) for n, seed in ((30, 4), (60, 5))]
        cases += [gen_random_geometric(80, 20.0, 6, complete=False)]
        for inst in cases:
            assert _picks(inst, select_best_star) == _picks(inst, helpers.eager_select_best_star)

    @pytest.mark.parametrize(
        "spec, iterations, scans",
        [
            ("family=line,n=150,eps=0.0078125", 75, 743),
            ("family=random-geometric,n=300,kappa=2,seed=0", 47, 861),
            ("family=random-geometric,n=300,kappa=2,seed=1,complete=false", 59, 904),
        ],
    )
    def test_work_counters_pinned(self, spec, iterations, scans):
        # the three 300-vertex instances of the benchmark's greedy-large workload
        sol = greedy_solve(GeneratorSpec.parse(spec).build()[0])
        assert (sol.iterations, sol.center_scans) == (iterations, scans)

    def test_scans_fewer_centers_than_the_eager_loop(self):
        inst = gen_line(150, 2.0**-7)
        sol = greedy_solve(inst)
        assert 0 < sol.center_scans < inst.n * sol.iterations


class TestRatioBound:
    def test_half(self):
        value = ratio_bound(0.5)
        assert value == pytest.approx(1.5 + 0.5 * math.log(2.0))
        assert value <= 1.85

    def test_one_is_two(self):
        assert ratio_bound(1.0) == 2.0

    def test_seven_eighths_matches_older_analysis(self):
        assert 1.9917 <= ratio_bound(7.0 / 8.0) <= 1.9919

    def test_domain(self):
        for bad in (0.0, -0.5, 1.0001):
            with pytest.raises(ValueError):
                ratio_bound(bad)


class TestCertify:
    def test_greedy_output_passes(self):
        rng = random.Random(41)
        for _ in range(40):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 9))
            assert certify(greedy_solve(inst)).all_passed

    def test_tampered_arcs_fail_connectivity(self):
        inst = triangle()
        sol = greedy_solve(inst)
        broken_arcs = frozenset(a for a in sol.arcs if a != (0, 1))
        broken = Solution(
            inst=inst,
            tree=sol.tree,
            arcs=broken_arcs,
            powers=sol.powers,
            total_power=sol.total_power,
            trace=sol.trace,
            tree_cost=sol.tree_cost,
            star_power=sol.star_power,
            residual_arcs=sol.residual_arcs,
        )
        assert not certify(broken).strongly_connected

    def test_bare_bidirected_tree_fails_budget(self):
        # negative control: an empty star collection leaves no power budget,
        # and the bidirected tree generally exceeds the bare tree cost
        inst = triangle()
        tree = minimum_spanning_tree(inst)
        arcs = frozenset(bidirect(tree))
        powers = power_of(inst, arcs)
        fake = Solution(
            inst=inst,
            tree=tree,
            arcs=arcs,
            powers=powers,
            total_power=powers.total,
            trace=(),
            tree_cost=tree.total_cost,
            star_power=0.0,
            residual_arcs=arcs,
        )
        report = certify(fake)
        assert not report.power_within_budget
        assert not report.one_residual_arc_per_edge


class TestGreedyInvariants:
    def test_fuzz_strong_connectivity_and_certificates(self):
        from minpower.graph import is_strongly_connected

        rng = random.Random(43)
        for i in range(500):
            n = rng.randint(2, 12)
            inst = helpers.random_connected_instance(rng, n, complete=bool(i % 2))
            sol = greedy_solve(inst)
            assert is_strongly_connected(inst, sol.arcs)
            assert certify(sol).all_passed
            # every pick covers at least one new tree edge, so n-1 bounds the loop
            assert sol.iterations <= inst.n - 1

    def test_trace_monotone_and_bounded(self):
        rng = random.Random(47)
        for _ in range(50):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 10))
            sol = greedy_solve(inst)
            running = 0.0
            for entry in sol.trace:
                assert entry.gain > 0.0 or entry.star.radius == 0.0
                running += entry.gain
            assert running == pytest.approx(sol.tree_cost, rel=1e-9)

    def test_ratio_against_oracle(self):
        rng = random.Random(53)
        bound = ratio_bound(0.5)
        for _ in range(60):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 7))
            sol = greedy_solve(inst)
            res = exact_optimum(inst)
            assert res.optimal
            assert sol.total_power <= bound * res.opt + 1e-9

    def test_selected_ratios_at_least_one(self):
        rng = random.Random(59)
        for _ in range(50):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 10))
            sol = greedy_solve(inst)
            for entry in sol.trace:
                if entry.star.radius > 0.0:
                    assert entry.gain >= entry.star.radius


class TestCostScaling:
    """Scaling every cost by 2**k is exact in floating point, so it must scale
    every greedy pick's radius and gain, and the total, exactly."""

    @staticmethod
    def scaled(inst, factor):
        return Instance.from_edges(inst.n, [(u, v, c * factor) for u, v, c in inst.edges])

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 4.0])
    def test_greedy_and_lp_scale(self, kappa):
        rng = random.Random(int(kappa) * 7919)
        for _ in range(8):
            inst = gen_random_geometric(
                rng.randint(8, 15), kappa, rng.randrange(10**6), complete=rng.random() < 0.5
            )
            sol = greedy_solve(inst)
            value = lp_lower_bound(inst).value
            for k in (-3, 5):
                factor = 2.0**k
                other = self.scaled(inst, factor)
                got = greedy_solve(other)
                assert [(e.star.center, e.star.radius, e.gain) for e in got.trace] == [
                    (e.star.center, e.star.radius * factor, e.gain * factor) for e in sol.trace
                ]
                assert got.total_power == sol.total_power * factor
                assert lp_lower_bound(other).value == pytest.approx(value * factor, rel=1e-9)


class TestRelabeling:
    """Renaming the vertices of an instance whose costs are pairwise distinct
    leaves the greedy total, the LP bound and the exact optimum unchanged up
    to summation order; the LP sees its star columns in a new order."""

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 4.0])
    def test_permuted_ids_keep_every_value(self, kappa):
        rng = random.Random(int(kappa) * 104729)
        for n in (8, 9, 10, 12, 14):
            complete = rng.random() < 0.5
            inst = gen_random_geometric(n, kappa, rng.randrange(10**6), complete=complete)
            costs = [c for _, _, c in inst.edges]
            assert len(set(costs)) == len(costs)
            perm = list(range(n))
            rng.shuffle(perm)
            other = Instance.from_edges(n, [(perm[u], perm[v], c) for u, v, c in inst.edges])
            assert greedy_solve(other).total_power == pytest.approx(
                greedy_solve(inst).total_power, rel=1e-12
            )
            value = lp_lower_bound(inst).value
            assert lp_lower_bound(other).value == pytest.approx(value, abs=1e-9)
            if n <= 9:
                opt = exact_optimum(inst).opt
                assert exact_optimum(other).opt == pytest.approx(opt, rel=1e-12)
