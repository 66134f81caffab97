import pytest

from oracles import bf_has_k22, naive_has_ktt
from corpus import random_graph, subdivided_star
import random
import time

from twinwidth.graphs import complete_bipartite, cycle_graph, graph_from_edges, path_graph
from twinwidth.partitions import partition_from_blocks, quotient
from twinwidth.sequences import verify_width
from twinwidth.treewidth import decomposition_from_order, min_fill_order, minor_min_width, verify_tree_decomposition
from twinwidth.structure import (
    MeshEmbedding,
    gen_tww3_family,
    gen_wall,
    has_ktt,
    subdivide_wall,
    tww3_family_sequence,
    verify_mesh,
    wall_to_mesh,
)


class TestWall:
    def test_trivial_wall(self):
        g, _ = gen_wall(1)
        assert (g.n, g.m) == (1, 0)

    def test_wall8_counts(self):
        g, _ = gen_wall(8)
        assert (g.n, g.m) == (64, 84)

    def test_max_degree_three(self):
        for n in (2, 5, 8):
            g, _ = gen_wall(n)
            assert max(g.degree(v) for v in range(g.n)) <= 3

    def test_subdivision_preserves_structure(self):
        g, wl = gen_wall(4)
        g2, wl2 = subdivide_wall(g, wl, 2)
        assert g2.n == g.n + 2 * g.m
        assert g2.m == 3 * g.m
        for a, b in wl2.wall_edges():
            route = wl2.route(a, b)
            assert len(route) == 4
            assert all(g2.has_edge(u, v) for u, v in zip(route, route[1:]))


class TestMesh:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_branching_count(self, n):
        g, wl = gen_wall(2 * n + 2)
        me = wall_to_mesh(g, wl, n)
        ok, why = verify_mesh(g, me)
        assert ok, why
        assert len(me.branching) == 2 * n * n

    def test_wall8_contains_3x3_mesh(self):
        g, wl = gen_wall(8)
        me = wall_to_mesh(g, wl, 3)
        assert verify_mesh(g, me)[0]
        assert len(me.branching) == 18

    def test_subdivided_wall_still_yields_mesh(self):
        g, wl = gen_wall(8)
        g2, wl2 = subdivide_wall(g, wl, 1)
        me = wall_to_mesh(g2, wl2, 3)
        assert verify_mesh(g2, me)[0]
        assert len(me.branching) == 18

    def test_wall_too_small(self):
        g, wl = gen_wall(4)
        with pytest.raises(ValueError):
            wall_to_mesh(g, wl, 3)

    def test_verify_rejects_broken_mesh(self):
        g, wl = gen_wall(8)
        me = wall_to_mesh(g, wl, 3)
        broken = type(me)(me.n, me.rows[:-1] + (me.rows[-1][:-2],), me.cols)
        assert not verify_mesh(g, broken)[0]

    @pytest.mark.parametrize("kind", ["row", "column"])
    def test_verify_rejects_empty_line(self, kind):
        g, _ = gen_wall(6)
        line = min(g.edges)
        rows, cols = (((),), (line,)) if kind == "row" else ((line,), ((),))
        assert verify_mesh(g, MeshEmbedding(1, rows, cols)) == (False, f"{kind} is empty")


class TestFamily:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_vertex_and_edge_counts(self, n):
        g, lab = gen_tww3_family(n)
        assert g.n == n * n + n
        assert g.m == n * (n - 1) + n * n
        assert len(lab.apexes) == n

    def test_small_counts_match_hand_derivation(self):
        g, _ = gen_tww3_family(2)
        assert (g.n, g.m) == (6, 6)

    def test_no_k22_up_to_50(self):
        for n in (2, 5, 10, 25, 50):
            g, _ = gen_tww3_family(n)
            assert has_ktt(g, 2) is None

    def test_quotient_by_paths_is_a_red_biclique(self):
        n = 4
        g, lab = gen_tww3_family(n)
        blocks = [set(p) for p in lab.paths] + [{a} for a in lab.apexes]
        pt = quotient(g, partition_from_blocks(g.n, blocks))
        path_ids = [min(p) for p in lab.paths]
        for a in lab.apexes:
            for pid in path_ids:
                assert (pid, a) in pt.quotient.red
        assert not pt.quotient.black

    def test_sequence_widths(self):
        assert verify_width(*_family_and_seq(1)) <= 1
        for n in range(3, 9):
            assert verify_width(*_family_and_seq(n)) == 3

    def test_sequence_width_at_n20(self):
        g, _ = gen_tww3_family(20)
        assert verify_width(g, tww3_family_sequence(20)) <= 3

    def test_treewidth_is_exactly_n(self):
        # the lower bound is a minor's minimum degree, the upper a verified decomposition
        for n in range(1, 41):
            g, _ = gen_tww3_family(n)
            order, width = min_fill_order(g)
            report = verify_tree_decomposition(g, decomposition_from_order(g, order))
            assert report.valid and report.width == width == minor_min_width(g) == n, n


def _family_and_seq(n):
    g, _ = gen_tww3_family(n)
    return g, tww3_family_sequence(n)


class TestHasKtt:
    def test_c4_is_k22(self):
        assert has_ktt(cycle_graph(4), 2) == ((1, 3), (0, 2))

    def test_trees_are_k22_free(self):
        assert has_ktt(path_graph(8), 2) is None

    def test_t1_is_any_edge(self):
        assert has_ktt(path_graph(2), 1) == ((0,), (1,))
        assert has_ktt(path_graph(1), 1) is None

    def test_t1_is_the_smallest_edge(self):
        # the general search takes the least vertex with a neighbour and
        # then its least neighbour: the smallest edge
        rng = random.Random(1801)
        corpus = [graph_from_edges(0, []), path_graph(1), graph_from_edges(6, [])]
        corpus += [random_graph(rng, rng.randint(1, 15), rng.choice((0.0, 0.05, 0.2, 0.6))) for _ in range(400)]
        hits = 0
        for g in corpus:
            e = min(g.edges, default=None)
            assert has_ktt(g, 1) == (((e[0],), (e[1],)) if e else None), sorted(g.edges)
            hits += e is not None
        assert 0 < hits < len(corpus)

    def test_k33_has_k33(self):
        g = complete_bipartite(3, 3)
        hit = has_ktt(g, 3)
        assert hit is not None
        a, b = hit
        assert all(g.has_edge(u, v) for u in a for v in b)
        assert has_ktt(g, 4) is None

    def test_hub_scan_matches_the_pair_scan(self):
        """Neighbourhoods of more than 32 choose per pair between testing
        the later neighbours and a two-step walk; the first pair and its
        two common neighbours are those of the scan over every pair."""
        rng = random.Random(2121)
        hits = 0
        for i in range(300):
            if i % 2:  # few 4-cycles through the hub
                g, extra = subdivided_star(rng.randint(33, 60)), rng.randint(1, 6)
            else:
                g, extra = random_graph(rng, rng.randint(40, 80), rng.choice((0.02, 0.05))), 0
            n = g.n
            edges = set(g.edges)
            for hub in rng.sample(range(n), rng.randint(1 - i % 2, 2)):
                edges |= {(min(hub, v), max(hub, v)) for v in rng.sample(range(n), rng.randint(33, n - 1)) if v != hub}
            while extra:
                u, v = sorted(rng.sample(range(n), 2))
                if (u, v) not in edges:
                    edges.add((u, v))
                    extra -= 1
            g = graph_from_edges(n, edges)
            hit = has_ktt(g, 2)
            assert hit == naive_has_ktt(g, 2), sorted(g.edges)
            hits += hit is not None
        assert hits == 287

    def test_subdivided_star_beside_a_c4(self):
        # every pair of the hub's 2,000 neighbours was tested: 0.7-1.0 s
        g = subdivided_star(2000)
        g = graph_from_edges(g.n + 4, [*g.edges, *((g.n + i, g.n + (i + 1) % 4) for i in range(4))])
        g.adj  # built before the clock starts
        start = time.perf_counter()
        assert has_ktt(g, 2) == ((4002, 4004), (4001, 4003))
        assert time.perf_counter() - start < 0.1

    def test_agrees_with_brute_force(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 9))
            hit = has_ktt(g, 2)
            assert (hit is not None) == bf_has_k22(g)
            if hit:
                a, b = hit
                assert all(g.has_edge(u, v) for u in a for v in b)
