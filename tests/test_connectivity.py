import random
import time

import pytest

from corpus import random_graph, red_paths
from oracles import min_separator_exhaustive, naive_max_disjoint_paths, naive_min_vertex_cut, separates
from twinwidth.connectivity import max_disjoint_paths, min_vertex_cut
from twinwidth.graphs import graph_from_edges, grid_graph, pair, path_graph
from twinwidth.partitions import quotient
from twinwidth.sequences import invert, partitions_at
from twinwidth.structure import gen_tww3_family, tww3_family_sequence


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

    @pytest.mark.parametrize("big_n", range(3, 9))
    def test_witness_regime_on_tww3_chains(self, big_n):
        """A = X1, B = X4 and `within` = the four parts, for every red path
        with X1, X4 unjoined at every index of the paper's certificate."""
        g, _ = gen_tww3_family(big_n)
        u = invert(g, tww3_family_sequence(big_n))
        checked = 0
        for i in range(1, g.n + 1):
            p = partitions_at(u, i)
            q = quotient(g, p).quotient
            for x1, x2, x3, x4 in red_paths(q.red_adj):
                if x1 > x4 or pair(x1, x4) in q.red or pair(x1, x4) in q.black:
                    continue
                A, B = p.members(x1), p.members(x4)
                within = A | p.members(x2) | p.members(x3) | B
                assert max_disjoint_paths(g, A, B, within) == naive_max_disjoint_paths(g, A, B, within)
                assert min_vertex_cut(g, A, B, within) == naive_min_vertex_cut(g, A, B, within)
                checked += 1
        assert checked > 0


def test_small_within_costs_what_it_holds():
    """100 cuts between the sides of a 10 x 10 window of the 200 x 200
    grid: a flow over `within` only, not over the grid's 79,600 edges."""
    g = grid_graph(200)
    assert len(g.adj) == 200 * 200  # built once per graph, outside the timing
    rng = random.Random(200)
    corners = [(rng.randrange(190), rng.randrange(190)) for _ in range(100)]
    start = time.perf_counter()
    for r, c in corners:
        window = {(r + i) * 200 + c + j for i in range(10) for j in range(10)}
        left = {(r + i) * 200 + c for i in range(10)}
        right = {(r + i) * 200 + c + 9 for i in range(10)}
        assert len(min_vertex_cut(g, left, right, within=window)) == 10
    assert time.perf_counter() - start < 0.3


def test_whole_graph_cut_stays_linear_per_search():
    """A cut across the whole 100 x 100 grid: 100 augmenting searches over
    10,000 vertices, each linear in the vertices and edges it may use.  On
    a 2-core x86-64 VM this takes about 0.3 s; an int-bitmask seen set,
    which copies k bits on every update, took 1.1 s."""
    g = grid_graph(100)
    assert len(g.adj) == 100 * 100  # built once per graph, outside the timing
    left = {r * 100 for r in range(100)}
    right = {r * 100 + 99 for r in range(100)}
    start = time.perf_counter()
    assert len(min_vertex_cut(g, left, right)) == 100
    assert time.perf_counter() - start < 1.0
