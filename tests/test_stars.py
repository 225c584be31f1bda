import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from minpower.graph import Instance, minimum_spanning_tree
from minpower.stars import CoverState, Star, apply_star, enumerate_stars, marginal_gain


def triangle():
    return Instance.from_edges(3, [(0, 1, 3.0), (1, 2, 4.0), (0, 2, 5.0)])


def path_abc():
    # complete triangle whose MST is the path a-b-c with costs 1, 2
    return Instance.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])


def star_of(inst, center, radius):
    leaves = frozenset(v for c, v in inst.adj[center] if c <= radius)
    return Star(center, radius, leaves)


def fresh_cover(inst, tree, star):
    """(edge index, arc) pairs a star covers on an empty cover state."""
    _, new_arcs = marginal_gain(CoverState(inst, tree), star)
    return new_arcs


def covered_edges(inst, tree, star):
    return {idx for idx, _ in fresh_cover(inst, tree, star)}


def directed_cover(inst, tree, star):
    return {arc for _, arc in fresh_cover(inst, tree, star)}


class TestEnumerateStars:
    def test_triangle(self):
        stars = {(s.center, s.radius): set(s.leaves) for s in enumerate_stars(triangle())}
        assert stars == {
            (0, 3.0): {1},
            (0, 5.0): {1, 2},
            (1, 3.0): {0},
            (1, 4.0): {0, 2},
            (2, 4.0): {1},
            (2, 5.0): {0, 1},
        }

    def test_two_vertices(self):
        stars = enumerate_stars(Instance.from_edges(2, [(0, 1, 2.0)]))
        assert len(stars) == 2
        assert {s.center for s in stars} == {0, 1}

    def test_equal_costs_collapse(self):
        inst = Instance.from_edges(3, [(0, 1, 2.0), (0, 2, 2.0)])
        at_zero = [s for s in enumerate_stars(inst) if s.center == 0]
        assert len(at_zero) == 1
        assert at_zero[0].leaves == frozenset({1, 2})

    def test_matches_star_at_per_radius(self):
        for inst in helpers.star_corpus():
            assert [(s.center, s.radius.hex(), s.leaves) for s in enumerate_stars(inst)] == [
                (s.center, s.radius.hex(), s.leaves) for s in helpers.stars_by_radius(inst)
            ]

    def test_count_bounded_by_2m(self):
        rng = random.Random(5)
        for _ in range(20):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 8))
            assert len(enumerate_stars(inst)) <= 2 * inst.m


class TestCoveredEdges:
    def test_center_covers_both_sides(self):
        inst = path_abc()
        tree = minimum_spanning_tree(inst)
        got = covered_edges(inst, tree, star_of(inst, 1, 2.0))
        assert got == set(range(2))

    def test_single_leaf(self):
        inst = path_abc()
        tree = minimum_spanning_tree(inst)
        got = covered_edges(inst, tree, star_of(inst, 0, 1.0))
        assert got == {tree.edges.index((0, 1, 1.0))}

    def test_line_star_reaching_both_unit_neighbours(self):
        # 4 collinear points, gaps 1, eps, 1; a radius-(1+eps)^2 star at vertex 2
        # covers both unit edges plus the eps edge between the reached vertices
        from minpower.instances import gen_line

        inst = gen_line(2, 0.25)
        tree = minimum_spanning_tree(inst)
        star = star_of(inst, 2, (1.0 + 0.25) ** 2)
        assert covered_edges(inst, tree, star) == set(range(3))

    def test_matches_pairwise_definition(self):
        rng = random.Random(13)
        for _ in range(40):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 7), complete=True)
            tree = minimum_spanning_tree(inst)
            for star in enumerate_stars(inst):
                assert covered_edges(inst, tree, star) == helpers.pairwise_cover(tree, star)


class TestDirectedCover:
    def test_center_paths(self):
        inst = path_abc()
        tree = minimum_spanning_tree(inst)
        assert directed_cover(inst, tree, star_of(inst, 1, 2.0)) == {(1, 0), (1, 2)}

    def test_two_hop_path(self):
        inst = path_abc()
        tree = minimum_spanning_tree(inst)
        assert directed_cover(inst, tree, star_of(inst, 0, 3.0)) == {(0, 1), (1, 2)}

    def test_empty_star(self):
        inst = path_abc()
        tree = minimum_spanning_tree(inst)
        assert directed_cover(inst, tree, Star(0, 0.0, frozenset())) == set()

    def test_projection_equals_covered_edges(self):
        rng = random.Random(17)
        for _ in range(30):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 8))
            tree = minimum_spanning_tree(inst)
            for star in enumerate_stars(inst):
                pairs = fresh_cover(inst, tree, star)
                for idx, (u, v) in pairs:
                    assert {u, v} == set(tree.edges[idx][:2])
                proj = {idx for idx, _ in pairs}
                assert proj == helpers.pairwise_cover(tree, star)
                assert len(pairs) == len(proj)  # one orientation per edge


class TestMarginalGain:
    def test_fresh_state(self):
        inst = path_abc()
        tree = minimum_spanning_tree(inst)
        state = CoverState(inst, tree)
        gain, arcs = marginal_gain(state, star_of(inst, 1, 2.0))
        assert gain == 3.0
        assert sorted(arcs) == [(0, (1, 0)), (1, (1, 2))]

    def test_saturated_state(self):
        inst = path_abc()
        tree = minimum_spanning_tree(inst)
        state = helpers.replay_state(inst, tree, [star_of(inst, 1, 2.0)])
        for star in enumerate_stars(inst):
            gain, arcs = marginal_gain(state, star)
            assert gain == 0.0
            assert arcs == []

    def test_gain_zero_iff_no_new_arcs(self):
        rng = random.Random(19)
        for _ in range(40):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 7))
            tree = minimum_spanning_tree(inst)
            stars = enumerate_stars(inst)
            state = helpers.replay_state(inst, tree, rng.sample(stars, rng.randrange(len(stars) + 1)))
            for star in stars:
                gain, arcs = marginal_gain(state, star)
                assert (gain == 0.0) == (not arcs)

    def test_consistent_with_recomputing_from_scratch(self):
        rng = random.Random(23)
        for _ in range(40):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 7))
            tree = minimum_spanning_tree(inst)
            stars = enumerate_stars(inst)
            chosen = rng.sample(stars, rng.randrange(len(stars) + 1))
            state = helpers.replay_state(inst, tree, chosen)
            extra = rng.choice(stars)
            gain, _ = marginal_gain(state, extra)
            assert gain == pytest.approx(
                helpers.coverage_value(tree, chosen + [extra]) - helpers.coverage_value(tree, chosen),
                abs=1e-9,
            )

    def test_reused_state_matches_tree_paths(self):
        # states built from random, mostly non-greedy stars: the new arcs are
        # the star's pairwise cover minus what is covered, each oriented away
        # from the center, and the gain sums their costs in arc order
        rng = random.Random(37)
        for _ in range(40):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 9))
            tree = minimum_spanning_tree(inst)
            stars = enumerate_stars(inst)
            chosen = rng.sample(stars, rng.randrange(len(stars) + 1))
            state = helpers.replay_state(inst, tree, chosen)
            covered = set()
            for star in chosen:
                covered |= helpers.pairwise_cover(tree, star)
            for star in stars:
                gain, arcs = marginal_gain(state, star)
                idxs = [idx for idx, _ in arcs]
                assert set(idxs) == helpers.pairwise_cover(tree, star) - covered
                assert len(idxs) == len(set(idxs))
                for idx, (u, v) in arcs:
                    assert {u, v} == set(tree.edges[idx][:2])
                    to_tail = helpers.tree_path_edges(tree, star.center, u)
                    to_head = helpers.tree_path_edges(tree, star.center, v)
                    assert len(to_tail) + 1 == len(to_head)
                assert gain == sum(tree.edges[idx][2] for idx in idxs)


class TestApplyStar:
    def test_zero_gain_star_grows_collection_only(self):
        inst = path_abc()
        tree = minimum_spanning_tree(inst)
        state = helpers.replay_state(inst, tree, [star_of(inst, 1, 2.0)])
        before = state.residual_arcs()
        star = star_of(inst, 0, 3.0)
        gain, arcs = marginal_gain(state, star)
        assert gain == 0.0
        apply_star(state, star, arcs)
        assert state.residual_arcs() == before
        assert state.chosen[-1] is star

    def test_arc_removal_by_hand(self):
        inst = path_abc()
        tree = minimum_spanning_tree(inst)
        state = CoverState(inst, tree)
        star = star_of(inst, 1, 2.0)
        gain, arcs = marginal_gain(state, star)
        apply_star(state, star, arcs)
        assert state.residual_arcs() == {(0, 1), (2, 1)}

    def test_full_coverage_reaches_tree_cost(self):
        rng = random.Random(29)
        for _ in range(20):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 7))
            tree = minimum_spanning_tree(inst)
            state = helpers.replay_state(inst, tree, enumerate_stars(inst))
            assert state.all_covered
            assert state.covered_cost == pytest.approx(tree.total_cost, rel=1e-12)

    def test_stale_arcs_rejected(self):
        inst = path_abc()
        tree = minimum_spanning_tree(inst)
        state = CoverState(inst, tree)
        star = star_of(inst, 1, 2.0)
        _, arcs = marginal_gain(state, star)
        apply_star(state, star, arcs)
        with pytest.raises(RuntimeError, match="stale arc"):
            apply_star(state, star, arcs)

    def test_covered_edge_keeps_other_arc_forever(self):
        rng = random.Random(31)
        for _ in range(20):
            inst = helpers.random_connected_instance(rng, rng.randint(2, 7))
            tree = minimum_spanning_tree(inst)
            state = CoverState(inst, tree)
            stars = enumerate_stars(inst)
            rng.shuffle(stars)
            for star in stars:
                _, arcs = marginal_gain(state, star)
                apply_star(state, star, arcs)
                residual = state.residual_arcs()
                for u, v, _ in tree.edges:
                    assert ((u, v) in residual) or ((v, u) in residual)


@st.composite
def nested_states(draw):
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    inst = helpers.random_connected_instance(rng, rng.randint(2, 8))
    tree = minimum_spanning_tree(inst)
    stars = enumerate_stars(inst)
    base = rng.sample(stars, rng.randrange(len(stars) + 1))
    extension = rng.sample(stars, rng.randrange(len(stars) + 1))
    probe = rng.choice(stars)
    return inst, tree, base, extension, probe


class TestMonotoneSubmodular:
    @settings(max_examples=80, deadline=None)
    @given(nested_states())
    def test_monotone_and_submodular(self, data):
        inst, tree, base, extension, probe = data
        small = helpers.replay_state(inst, tree, base)
        large = helpers.replay_state(inst, tree, base + extension)
        assert large.covered_cost >= small.covered_cost - 1e-9
        gain_small, _ = marginal_gain(small, probe)
        gain_large, _ = marginal_gain(large, probe)
        assert gain_small >= gain_large - 1e-9
