import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_graph, singleton_partition
from oracles import naive_quotient, naive_split_part
from twinwidth.graphs import (
    Graph,
    complete_graph,
    contract,
    cycle_graph,
    graph_from_edges,
    grid_graph,
    max_red_degree,
    pair,
    path_graph,
    relabel,
    trigraph_from_graph,
    Trigraph,
)
from twinwidth.partitions import partition_from_blocks, quotient, split_part
from twinwidth.pipeline import decomposition_sequence
from twinwidth.sequences import invert, partitions_at, split_at
from twinwidth.structure import gen_tww3_family, gen_wall, tww3_family_sequence
from twinwidth.treewidth import decomposition_from_order, min_fill_order


def small_graphs(max_n=8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            lambda edges: graph_from_edges(n, edges),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
                max_size=n * (n - 1) // 2,
            ),
        )
    )


class TestContract:
    def test_twins_of_p3_merge_black(self):
        t = contract(trigraph_from_graph(path_graph(3)), 0, 2)
        assert t.red == frozenset()
        assert t.black == {(0, 1)}

    def test_p4_endpoint_merge_reds_one_side(self):
        t = contract(trigraph_from_graph(path_graph(4)), 0, 1)
        assert t.red == {(0, 2)}
        assert (2, 3) in t.black
        assert max_red_degree(t) == 1

    def test_c5_adjacent_merge_reds_both_sides(self):
        t = contract(trigraph_from_graph(cycle_graph(5)), 0, 1)
        assert t.red == {(0, 2), (0, 4)}
        assert max_red_degree(t) == 2

    def test_red_inheritance(self):
        t = Trigraph(frozenset(range(4)), frozenset([(2, 3)]), frozenset([(0, 1), (1, 2)]))
        out = contract(t, 1, 2, new_id=5)
        assert (0, 5) in out.red  # inherited red survives the merge
        assert (3, 5) in out.red  # seen by only one side

    def test_explicit_product_id(self):
        t = contract(trigraph_from_graph(path_graph(3)), 0, 2, new_id=9)
        assert t.vertices == {1, 9}

    def test_errors(self):
        t = trigraph_from_graph(path_graph(3))
        with pytest.raises(ValueError):
            contract(t, 0, 0)
        with pytest.raises(ValueError):
            contract(t, 0, 7)
        with pytest.raises(ValueError):
            contract(t, 0, 1, new_id=2)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(8), st.randoms(use_true_random=False))
    def test_commutes_with_relabeling(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        x1, x2 = rnd.sample(range(g.n), 2)
        lhs = contract(trigraph_from_graph(relabel(g, perm)), perm[x1], perm[x2], new_id=g.n)
        rhs = _relabel_trigraph(
            contract(trigraph_from_graph(g), x1, x2, new_id=g.n),
            {**{v: perm[v] for v in range(g.n)}, g.n: g.n},
        )
        assert lhs == rhs


class TestRedDegree:
    def test_all_black_graph(self):
        t = trigraph_from_graph(complete_graph(4))
        assert max_red_degree(t) == 0

    def test_red_path_interior(self):
        t = Trigraph(frozenset(range(4)), frozenset(), frozenset([(0, 1), (1, 2), (2, 3)]))
        assert max_red_degree(t) == 2


def _relabel_trigraph(t: Trigraph, perm) -> Trigraph:
    return Trigraph(
        frozenset(perm[v] for v in t.vertices),
        frozenset(pair(perm[u], perm[v]) for u, v in t.black),
        frozenset(pair(perm[u], perm[v]) for u, v in t.red),
    )


def are_twins(g: Graph, x: int, y: int) -> bool:
    """Twins have the same neighbours outside the pair, so contracting
    them turns no edge red."""
    return not contract(trigraph_from_graph(g), x, y).red


class TestTwins:
    def test_c4_opposites(self):
        assert are_twins(cycle_graph(4), 0, 2)
        assert not are_twins(cycle_graph(4), 0, 1)

    def test_p4_ends(self):
        assert not are_twins(path_graph(4), 0, 3)

    def test_clique_pairs(self):
        g = complete_graph(4)
        assert all(are_twins(g, u, v) for u, v in combinations(range(4), 2))


class TestQuotient:
    def test_singletons_reproduce_graph(self):
        g = random_graph(random.Random(3), 7)
        pt = quotient(g, singleton_partition(7))
        assert pt.quotient.red == frozenset()
        assert pt.quotient.black == g.edges

    def test_one_part_collapses_everything(self):
        g = cycle_graph(5)
        pt = quotient(g, partition_from_blocks(5, [set(range(5))]))
        assert pt.quotient.n == 1
        assert not pt.quotient.black and not pt.quotient.red

    def test_c4_complete_crossings_are_black(self):
        pt = quotient(cycle_graph(4), partition_from_blocks(4, [{0, 2}, {1}, {3}]))
        assert pt.quotient.black == {(0, 1), (0, 3)}
        assert pt.quotient.red == frozenset()

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            partition_from_blocks(4, [{0, 1}, {1, 2}, {3}])
        with pytest.raises(ValueError):
            partition_from_blocks(4, [{0, 1}, {3}])
        with pytest.raises(ValueError):
            quotient(path_graph(3), singleton_partition(4))

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(10), st.randoms(use_true_random=False))
    def test_black_means_complete_crossing(self, g, rnd):
        blocks = [[] for _ in range(rnd.randint(1, g.n))]
        for v in range(g.n):
            blocks[rnd.randrange(len(blocks))].append(v)
        blocks = [b for b in blocks if b]
        pt = quotient(g, partition_from_blocks(g.n, blocks))
        members = pt.partition.by_id
        for a, b in pt.quotient.black:
            assert all(g.has_edge(u, v) for u in members[a] for v in members[b])
        for a, b in pt.quotient.red:
            crossing = sum(1 for u in members[a] for v in members[b] if g.has_edge(u, v))
            assert 0 < crossing < len(members[a]) * len(members[b])


class TestSplitPart:
    def test_matches_scratch_on_all_small_partitions(self):
        # every partition of <= 4 parts on a few graphs, every 2-way split
        rng = random.Random(11)
        for n in (5, 6, 7):
            g = random_graph(rng, n, 0.5)
            for blocks in _partitions_upto(n, 4):
                base = partition_from_blocks(n, blocks)
                pt = quotient(g, base)
                for pid, members in base.parts:
                    if len(members) < 2:
                        continue
                    lead = min(members)
                    seta = frozenset([lead])
                    setb = members - seta
                    inc = split_part(g, pt, pid, (n + 1, seta), (n + 2, setb))
                    assert inc == naive_quotient(g, inc.partition)
                    assert inc == naive_split_part(g, pt, pid, (n + 1, seta), (n + 2, setb))

    def test_rejects_bad_split(self):
        g = cycle_graph(4)
        pt = quotient(g, partition_from_blocks(4, [{0, 1, 2}, {3}]))
        with pytest.raises(ValueError):
            split_part(g, pt, 0, (5, frozenset({0})), (6, frozenset({1})))


class TestQuotientAgainstNaive:
    """The one-pass quotient equals the pairwise colouring in `oracles`."""

    def test_random_partitions(self):
        rng = random.Random(707)
        for i in range(2000):  # n <= 30, every density from nearly empty to nearly complete
            n = rng.randint(1, 30)
            g = random_graph(rng, n, (i % 10 + 0.5) / 10)
            k = rng.randint(1, n)
            blocks = [[] for _ in range(k)]
            for v in range(n):
                blocks[rng.randrange(k)].append(v)
            p = partition_from_blocks(n, [b for b in blocks if b])
            assert quotient(g, p) == naive_quotient(g, p)

    @pytest.mark.parametrize("chain", ["tww3", "wall"])
    def test_every_partition_along_chains(self, chain):
        if chain == "tww3":
            cases = []
            for n in range(3, 9):
                g, _ = gen_tww3_family(n)
                cases.append((g, invert(g, tww3_family_sequence(n))))
        else:
            g, _ = gen_wall(6)
            td = decomposition_from_order(g, min_fill_order(g)[0])
            cases = [(g, invert(g, decomposition_sequence(g, td)))]
        for g, u in cases:
            pt = quotient(g, partitions_at(u, 1))
            assert pt == naive_quotient(g, pt.partition)
            for i in range(u.n - 1):
                sp = split_at(u, i)
                halves = (sp.id_a, sp.set_a), (sp.id_b, sp.set_b)
                nxt = split_part(g, pt, sp.parent, *halves)
                assert nxt == naive_quotient(g, nxt.partition)
                assert nxt == naive_split_part(g, pt, sp.parent, *halves)
                pt = nxt
            assert pt.quotient.black == g.edges and not pt.quotient.red


def _partitions_upto(n, max_parts):
    def rec(v, blocks):
        if v == n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(v)
            yield from rec(v + 1, blocks)
            b.pop()
        if len(blocks) < max_parts:
            blocks.append([v])
            yield from rec(v + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


class TestGraphBasics:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset([(0, 0)]))
        with pytest.raises(ValueError):
            Graph(3, frozenset([(0, 4)]))
        with pytest.raises(ValueError):
            Trigraph(frozenset([0, 1]), frozenset([(0, 1)]), frozenset([(0, 1)]))

    def test_negative_sizes_rejected(self):
        # Graph(-3, ...) built, and grid_graph(-1) was a 1-vertex graph
        with pytest.raises(ValueError):
            Graph(-3, frozenset())
        for rows, cols in ((-1, None), (2, -3), (-2, 3)):
            with pytest.raises(ValueError):
                grid_graph(rows, cols)
        assert grid_graph(0).n == grid_graph(2, 0).n == 0

    def test_round_trip_merge_then_split(self):
        # contracting two parts and splitting the product back restores the state
        g = random_graph(random.Random(5), 8, 0.4)
        blocks = [{0, 1, 2}, {3, 4}, {5, 6, 7}]
        base = partition_from_blocks(8, blocks)
        merged = partition_from_blocks(8, [{0, 1, 2, 3, 4}, {5, 6, 7}])
        pt = quotient(g, merged)
        back = split_part(g, pt, 0, (0, frozenset({0, 1, 2})), (3, frozenset({3, 4})))
        assert back.quotient == quotient(g, base).quotient
