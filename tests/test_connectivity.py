import random

import pytest

from corpus import random_graph
from oracles import min_separator_exhaustive, naive_max_disjoint_paths, naive_min_vertex_cut, separates
from twinwidth.connectivity import max_disjoint_paths, min_vertex_cut
from twinwidth.graphs import graph_from_edges, grid_graph, path_graph


class TestDisjointPaths:
    def test_shared_vertex_is_a_zero_length_path(self):
        g = grid_graph(3, 3)
        count, paths = max_disjoint_paths(g, {4}, {4})
        assert count == 1
        assert paths == [[4]]

    def test_disconnected_sides(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        count, paths = max_disjoint_paths(g, {0, 1}, {2, 3})
        assert count == 0 and paths == []
        assert min_vertex_cut(g, {0, 1}, {2, 3}) == frozenset()

    def test_grid_columns(self):
        g = grid_graph(3, 3)
        count, paths = max_disjoint_paths(g, {0, 3, 6}, {2, 5, 8})
        assert count == 3
        assert len(min_vertex_cut(g, {0, 3, 6}, {2, 5, 8})) == 3

    def test_within_restriction(self):
        g = path_graph(5)
        count, _ = max_disjoint_paths(g, {0}, {4}, within={0, 1, 2, 3, 4})
        assert count == 1
        count, _ = max_disjoint_paths(g, {0}, {4}, within={0, 1, 3, 4})
        assert count == 0

    def test_validation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            max_disjoint_paths(g, set(), {1})
        with pytest.raises(ValueError):
            max_disjoint_paths(g, {0}, {2}, within={0, 1})

    def test_paths_are_disjoint_and_anchored(self):
        rng = random.Random(21)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 10))
            A = set(rng.sample(range(g.n), rng.randint(1, max(1, g.n // 2))))
            B = set(rng.sample(range(g.n), rng.randint(1, max(1, g.n // 2))))
            count, paths = max_disjoint_paths(g, A, B)
            seen = set()
            for p in paths:
                assert p[0] in A and p[-1] in B
                assert not (seen & set(p))
                seen |= set(p)
                for u, v in zip(p, p[1:]):
                    assert g.has_edge(u, v)
            assert len(paths) == count


class TestMenger:
    def test_equality_against_exhaustive_cut(self):
        rng = random.Random(33)
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 9))
            A = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            B = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            count, _ = max_disjoint_paths(g, A, B)
            cut = min_vertex_cut(g, A, B)
            assert separates(g, A, B, cut)
            assert len(cut) == count == min_separator_exhaustive(g, A, B)

    def test_grid_cut_is_certified_minimal(self):
        g = grid_graph(3, 3)
        cut = min_vertex_cut(g, {0, 3, 6}, {2, 5, 8})
        assert separates(g, {0, 3, 6}, {2, 5, 8}, cut)
        assert min_separator_exhaustive(g, {0, 3, 6}, {2, 5, 8}) == 3


class TestAgainstNaive:
    """The residual-only network gives exactly the value, paths and cut of
    the two-dict network in `oracles`."""

    def test_identical_paths_and_cuts(self):
        rng = random.Random(4040)
        kinds = set()
        for i in range(1000):
            n = rng.randint(1, 40)
            g = random_graph(rng, n, (i % 10 + 0.5) / 20)
            A = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
            B = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
            within = None
            if i % 2:
                within = A | B | set(rng.sample(range(n), rng.randint(0, n)))
            kinds.add((within is None, bool(A & B)))
            assert max_disjoint_paths(g, A, B, within) == naive_max_disjoint_paths(g, A, B, within)
            assert min_vertex_cut(g, A, B, within) == naive_min_vertex_cut(g, A, B, within)
        assert len(kinds) == 4
