import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from minpower.graph import (
    Instance,
    InstanceError,
    PowerAssignment,
    bidirect,
    induced_arcs,
    is_strongly_connected,
    minimum_spanning_tree,
    power_of,
)


def triangle():
    return Instance.from_edges(3, [(0, 1, 3.0), (1, 2, 4.0), (0, 2, 5.0)])


class TestInstanceValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(InstanceError, match="self-loop"):
            Instance.from_edges(2, [(0, 0, 1.0)])

    def test_duplicate_rejected(self):
        with pytest.raises(InstanceError, match="duplicate"):
            Instance.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_negative_cost_rejected(self):
        with pytest.raises(InstanceError, match="bad cost"):
            Instance.from_edges(2, [(0, 1, -1.0)])

    def test_disconnected_rejected(self):
        with pytest.raises(InstanceError, match="not connected"):
            Instance.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InstanceError, match="outside vertex range"):
            Instance.from_edges(2, [(0, 2, 1.0)])

    def test_overflowing_total_power_rejected(self):
        # each cost is finite, but twice the sum of the vertices' largest
        # incident costs, which bounds every total power, is not
        with pytest.raises(InstanceError, match="costs too large: the total power overflows"):
            Instance.from_edges(2, [(0, 1, 1e308)])
        # the optimum 2c is finite here, but 1.85 times it is not
        with pytest.raises(InstanceError, match="total power overflows"):
            Instance.from_edges(2, [(0, 1, sys.float_info.max / 3)])

    def test_largest_total_power_accepted(self):
        big = sys.float_info.max / 4  # 2 * (big + big) is the largest finite float
        assert Instance.from_edges(2, [(0, 1, big)]).cost(0, 1) == big

    def test_zero_cost_allowed(self):
        inst = Instance.from_edges(2, [(0, 1, 0.0)])
        assert inst.cost(0, 1) == 0.0

    def test_single_vertex_is_connected(self):
        assert Instance.from_edges(1, []).is_connected()


class TestMinimumSpanningTree:
    def test_triangle_against_enumeration(self):
        inst = triangle()
        tree = minimum_spanning_tree(inst)
        assert sorted((u, v) for u, v, _ in tree.edges) == [(0, 1), (1, 2)]
        assert tree.total_cost == 7.0
        best = min(sum(c for _, _, c in combo) for combo in helpers.all_spanning_trees(inst))
        assert best == tree.total_cost

    def test_two_vertices(self):
        inst = Instance.from_edges(2, [(0, 1, 2.5)])
        tree = minimum_spanning_tree(inst)
        assert tree.edges == ((0, 1, 2.5),)
        assert tree.total_cost == 2.5

    def test_line_n2_by_hand(self):
        # 4 points, gaps 1, eps, 1: consecutive-edge tree, cost 2 + eps^2
        from minpower.instances import gen_line

        eps = 0.25
        inst = gen_line(2, eps)
        tree = minimum_spanning_tree(inst)
        assert sorted((u, v) for u, v, _ in tree.edges) == [(0, 1), (1, 2), (2, 3)]
        assert tree.total_cost == 2.0 + eps * eps

    def test_deterministic_tie_breaking(self):
        # 4-cycle with equal costs: sorted (cost, u, v) picks 01, 03, 12
        inst = Instance.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        tree = minimum_spanning_tree(inst)
        assert sorted((u, v) for u, v, _ in tree.edges) == [(0, 1), (0, 3), (1, 2)]

    def test_matches_enumeration_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(30):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 5))
            tree = minimum_spanning_tree(inst)
            best = min(sum(c for _, _, c in combo) for combo in helpers.all_spanning_trees(inst))
            assert tree.total_cost == best

    def test_matches_kruskal(self):
        # the edges Kruskal picks over all edges sorted by (cost, u, v), in that
        # order and with the same costs; a -0.0 cost equals 0.0, so hex tells
        # them apart
        from minpower.instances import gen_line, gen_polygon, gen_random_geometric

        rng = random.Random(29)
        cases = [gen_line(n, eps) for n in (1, 2, 10, 50) for eps in (0.25, 2.0**-7)]
        cases += [gen_polygon(n)[0] for n in range(2, 6)]
        cases += [
            gen_random_geometric(40, kappa, 3, complete=complete)
            for kappa in (1.0, 2.0, 4.0, 20.0)
            for complete in (True, False)
        ]
        cases += [
            helpers.random_connected_instance(rng, rng.randint(2, 12), complete=i % 2 == 0)
            for i in range(40)
        ]
        # costs 1 and 2 only: many minimum spanning trees, and the tie order picks one
        for _ in range(20):
            n = rng.randint(3, 12)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            two_costs = [(u, v, float(rng.randint(1, 2))) for u, v in pairs]
            cases.append(Instance.from_edges(n, two_costs))
        pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        signed_zeros = [(u, v, rng.choice((0.0, -0.0, 1.0))) for u, v in pairs]
        cases += [Instance.from_edges(6, signed_zeros), Instance.from_edges(1, [])]
        for inst in cases:
            edges = minimum_spanning_tree(inst).edges
            expected = helpers.kruskal_tree(inst)
            assert edges == expected
            assert [c.hex() for _, _, c in edges] == [c.hex() for _, _, c in expected]

    def test_disconnected_trusted_instance_rejected(self):
        with pytest.raises(InstanceError, match="instance not connected"):
            minimum_spanning_tree(Instance(4, ((0, 1, 1.0), (2, 3, 1.0))))


class TestBidirect:
    def test_single_edge(self):
        tree = minimum_spanning_tree(Instance.from_edges(2, [(0, 1, 1.0)]))
        assert bidirect(tree) == {(0, 1), (1, 0)}

    def test_path(self):
        inst = Instance.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert bidirect(minimum_spanning_tree(inst)) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_cardinality(self):
        rng = random.Random(3)
        for _ in range(10):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 8))
            tree = minimum_spanning_tree(inst)
            assert len(bidirect(tree)) == 2 * (inst.n - 1)


class TestStrongConnectivity:
    def test_bidirected_tree(self):
        inst = triangle()
        assert is_strongly_connected(inst, bidirect(minimum_spanning_tree(inst)))

    def test_missing_return_arc(self):
        inst = triangle()
        assert not is_strongly_connected(inst, {(0, 1), (1, 2)})

    def test_directed_cycle(self):
        inst = triangle()
        assert is_strongly_connected(inst, {(0, 1), (1, 2), (2, 0)})

    def test_single_vertex(self):
        assert is_strongly_connected(Instance.from_edges(1, []), set())

    def test_agrees_with_transitive_closure(self):
        rng = random.Random(11)
        for _ in range(200):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 6))
            arcs = set()
            for u, v, _ in inst.edges:
                if rng.random() < 0.6:
                    arcs.add((u, v))
                if rng.random() < 0.6:
                    arcs.add((v, u))
            expected = helpers.transitive_closure_strongly_connected(inst.n, arcs)
            assert is_strongly_connected(inst, arcs) == expected


class TestPowerOf:
    def test_bidirected_path_by_hand(self):
        inst = triangle()
        arcs = {(0, 1), (1, 0), (1, 2), (2, 1)}
        p = power_of(inst, arcs)
        assert p.levels == (3.0, 4.0, 4.0)
        assert p.total == 11.0

    def test_line_mst_power_is_2n(self):
        from minpower.instances import gen_line

        for n in (1, 2, 5, 20):
            inst = gen_line(n, 0.01)
            arcs = bidirect(minimum_spanning_tree(inst))
            assert power_of(inst, arcs).total == 2.0 * n

    def test_empty_arcs(self):
        p = power_of(triangle(), set())
        assert p.levels == (0.0, 0.0, 0.0)
        assert p.total == 0.0

    def test_unknown_arc_rejected(self):
        inst = Instance.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(InstanceError, match="no edge"):
            power_of(inst, {(0, 2)})


class TestPowerAssignment:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_level_rejected(self, bad):
        # a NaN or inf level would induce every arc and verify as connected
        with pytest.raises(ValueError, match="vertex 1"):
            PowerAssignment((0.0, bad, 0.0))
        with pytest.raises(ValueError, match="bad power"):
            PowerAssignment((bad,) * 3)


class TestInducedArcs:
    def test_one_directional(self):
        inst = Instance.from_edges(2, [(0, 1, 3.0)])
        assert induced_arcs(inst, PowerAssignment((3.0, 0.0))) == {(0, 1)}

    def test_full_power_gives_all_arcs(self):
        inst = triangle()
        p = PowerAssignment((5.0, 4.0, 5.0))
        assert induced_arcs(inst, p) == {(u, v) for u, v, _ in inst.edges} | {
            (v, u) for u, v, _ in inst.edges
        }

    def test_zero_power_gives_nothing(self):
        assert induced_arcs(triangle(), PowerAssignment((0.0, 0.0, 0.0))) == set()


@st.composite
def instances_and_arcs(draw):
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    inst = helpers.random_connected_instance(rng, rng.randint(2, 7))
    arcs = set()
    for u, v, _ in inst.edges:
        if rng.random() < 0.5:
            arcs.add((u, v))
        if rng.random() < 0.5:
            arcs.add((v, u))
    return inst, arcs


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(instances_and_arcs())
    def test_power_at_most_sum_of_arc_costs(self, pair):
        inst, arcs = pair
        total = power_of(inst, arcs).total
        assert total <= sum(inst.cost(u, v) for u, v in arcs) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_bidirected_mst_power_at_most_twice_cost(self, seed):
        rng = random.Random(seed)
        inst = helpers.random_connected_instance(rng, rng.randint(2, 8))
        tree = minimum_spanning_tree(inst)
        assert power_of(inst, bidirect(tree)).total <= 2.0 * tree.total_cost + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(instances_and_arcs())
    def test_induced_roundtrip(self, pair):
        inst, arcs = pair
        p = power_of(inst, arcs)
        induced = induced_arcs(inst, p)
        assert induced >= arcs
        assert power_of(inst, induced).total == p.total
