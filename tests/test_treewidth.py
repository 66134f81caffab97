import random
import re
import time
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from corpus import grid_with_tail, random_graph, random_sparse, random_tree
from oracles import (
    _naive_eliminate,
    naive_almost_simplicial,
    naive_min_fill_order,
    naive_minor_min_width,
    naive_search,
    naive_search_degree_one,
    naive_search_first_candidate,
    naive_treewidth_order,
    naive_verify_tree_decomposition,
    oracle_treewidth,
)
from twinwidth.graphs import complete_graph, cycle_graph, graph_from_edges, grid_graph, path_graph
from twinwidth.pipeline import pipeline_certify
from twinwidth.treewidth import (
    BudgetExceeded,
    TreeDecomposition,
    decomposition_from_order,
    min_fill_order,
    minor_min_width,
    treewidth_exact,
    treewidth_order,
    verify_tree_decomposition,
)
from twinwidth.treewidth import _almost_simplicial
from twinwidth.treewidth import _search as search_with_states
from twinwidth.treewidth import _subset_search


class TestExact:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_cliques(self, n):
        assert treewidth_exact(complete_graph(n)).width == n - 1

    def test_trees_are_width_one(self):
        rng = random.Random(4)
        for _ in range(10):
            g = random_tree(rng, rng.randint(2, 14))
            assert treewidth_exact(g).width == 1

    def test_grids(self):
        assert treewidth_exact(grid_graph(3)).width == 3
        assert treewidth_exact(grid_graph(4)).width == 4
        assert treewidth_exact(grid_graph(5)).width == 5

    def test_cycle(self):
        assert treewidth_exact(cycle_graph(8)).width == 2

    def test_family_lower_bound(self):
        from twinwidth.structure import gen_tww3_family

        for n in (2, 3):
            g, _ = gen_tww3_family(n)
            assert treewidth_exact(g).width >= n

    def test_oracle_agreement_sample(self):
        rng = random.Random(19)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8))
            r = treewidth_exact(g)
            assert r.width == oracle_treewidth(g)

    def test_every_decomposition_verifies(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 9))
            r = treewidth_exact(g)
            report = verify_tree_decomposition(g, r.decomposition)
            assert report.valid and report.width == r.width

    def test_budget_reports_unknown_with_bounds(self):
        g = grid_graph(5)
        r = treewidth_exact(g, budget=5)
        assert r.status == "unknown"
        assert r.lb <= 5 <= r.ub
        assert r.expanded == 5  # min-fill's 5 against the lower bound 4: one decision, exhausted

    def test_expanded_sums_the_decisions(self):
        assert treewidth_exact(grid_graph(4)).expanded == 0  # min-fill meets the lower bound
        rng = random.Random(2318)
        for i in range(12):
            g = random_sparse(rng, 18 + i % 6)
            lb, ub, states = minor_min_width(g), min_fill_order(g)[1], 0
            while lb < ub:  # climbs from the lower bound to the first YES
                order, spent = search_with_states(g, lb, None)
                states += spent
                if order is not None:
                    break
                lb += 1
            r = treewidth_exact(g)
            assert r.expanded == states and r.width == lb

    def test_budget_keeps_every_refuted_bound(self):
        # the NO at k = 5 takes 116 states and the search at k = 6 takes 372;
        # deciding downward from min-fill's 7 would spend the budget at k = 6
        # and could report only 5..7
        rng = random.Random(2318)
        for i in range(53):
            g = random_sparse(rng, 18 + i % 6)
        assert g.n == 22 and (minor_min_width(g), min_fill_order(g)[1]) == (5, 7)
        assert search_with_states(g, 5, None) == (None, 116)
        assert search_with_states(g, 6, None) == (None, 372)
        r = treewidth_exact(g, budget=150)
        assert (r.status, r.lb, r.ub, r.expanded) == ("unknown", 6, 7, 266)
        assert treewidth_exact(g).width == 7


# Graphs that a cut counting the live vertices of fill degree above k
# refuted at their tree-width: eliminating a neighbour can lower a fill degree.
TWELVE_VERTICES = [(0, 1), (0, 3), (0, 4), (0, 6), (0, 7), (0, 9), (0, 10), (0, 11), (1, 2), (1, 4), (1, 5),
                   (1, 7), (1, 9), (1, 10), (2, 4), (2, 6), (2, 8), (2, 9), (3, 10), (4, 5), (4, 6), (4, 7),
                   (5, 6), (5, 8), (5, 9), (6, 7), (6, 10), (6, 11), (7, 8), (7, 9), (9, 10), (9, 11), (10, 11)]
# the benchmark's gated graph sparse8-n20-m32 at seed 1
SPARSE8 = [(0, 1), (0, 2), (0, 4), (0, 6), (0, 16), (1, 5), (1, 6), (1, 13), (1, 19), (2, 3), (2, 7), (2, 10),
           (3, 8), (3, 12), (3, 13), (3, 16), (5, 6), (5, 8), (5, 12), (5, 13), (6, 9), (6, 16), (8, 15),
           (10, 11), (10, 19), (11, 18), (13, 14), (13, 15), (13, 17), (14, 17), (16, 18), (17, 18)]


def _order_width(g, order) -> int:
    report = verify_tree_decomposition(g, decomposition_from_order(g, order))
    assert report.valid
    return report.width


class TestSoundGate:
    """The subset search refutes k only when the tree-width exceeds k."""

    def test_every_bound_against_the_exhaustive_recursion(self):
        rng = random.Random(3030)
        for _ in range(160):
            n = rng.randint(4, 10)
            g = random_graph(rng, n, rng.uniform(0.2, 0.6))
            tw = oracle_treewidth(g)
            assert treewidth_exact(g).width == tw, sorted(g.edges)
            for k in range(n - 1):
                order, _ = _subset_search(g, k, None)
                assert (order is not None) == (tw <= k), (k, sorted(g.edges))
                if order is not None:
                    assert _order_width(g, order) <= k, (k, sorted(g.edges))

    def test_path(self):
        order, _ = _subset_search(path_graph(5), 1, None)
        assert order is not None and _order_width(path_graph(5), order) == 1

    def test_twelve_vertices(self):
        g = graph_from_edges(12, TWELVE_VERTICES)
        assert _order_width(g, [2, 3, 5, 8, 4, 1, 0, 6, 7, 9, 10, 11]) == 5
        assert treewidth_exact(g).width == 5 == oracle_treewidth(g)

    def test_benchmark_graph_inside_the_gate(self):
        g = graph_from_edges(20, SPARSE8)
        assert _order_width(g, [4, 7, 9, 11, 12, 14, 15, 17, 19, 8, 2, 5, 10, 13, 1, 0, 3, 6, 16, 18]) == 4
        assert treewidth_exact(g).width == 4
        r = pipeline_certify(g, 2, 4)
        assert (r.status, r.ktt) == ("not-applicable", ((1, 6), (0, 5)))


def treewidth_decide(g, k, budget=None) -> bool:
    return treewidth_order(g, k, budget) is not None


class TestDecide:
    def test_grid5_gate(self):
        assert treewidth_decide(grid_graph(5), 3) is False
        assert treewidth_decide(grid_graph(5), 5) is True

    def test_budget_raises(self):
        with pytest.raises(BudgetExceeded):
            treewidth_decide(grid_graph(5), 4, budget=3)

    def test_negative_bound(self):
        # tree-width -1 belongs to the empty graph alone; the search says so
        # without a special case
        assert treewidth_decide(path_graph(0), -1) is True
        for g in (path_graph(1), graph_from_edges(3, []), grid_graph(3)):
            assert treewidth_decide(g, -1) is False

    def test_negative_budget_is_rejected(self):
        # these ignored the budget, even where the search ran
        for call in (
            lambda: treewidth_order(grid_graph(5), 4, budget=-1),
            lambda: treewidth_order(grid_graph(5), -1, budget=-1),
            lambda: treewidth_exact(grid_graph(5), budget=-1),
            lambda: treewidth_exact(path_graph(0), budget=-1),
        ):
            with pytest.raises(ValueError, match="budget"):
                call()

    def test_order_is_a_certificate(self):
        g = grid_graph(4)  # tree-width 4
        order = treewidth_order(g, 4)
        assert verify_tree_decomposition(g, decomposition_from_order(g, order)).width <= 4
        assert treewidth_order(g, 3) is None

    def test_matches_exact(self):
        rng = random.Random(29)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 8))
            w = treewidth_exact(g).width
            assert treewidth_decide(g, w) is True
            if w > 0:
                assert treewidth_decide(g, w - 1) is False


class TestVerifier:
    def test_reports_missing_vertex(self):
        g = path_graph(3)
        td = TreeDecomposition(((0, frozenset({0, 1})),), ())
        report = verify_tree_decomposition(g, td)
        assert not report.valid and "in no bag" in report.violation

    def test_reports_uncovered_edge(self):
        g = path_graph(3)
        td = TreeDecomposition(((0, frozenset({0, 1})), (1, frozenset({2}))), ((0, 1),))
        report = verify_tree_decomposition(g, td)
        assert not report.valid and "edge (1,2)" in report.violation

    def test_reports_disconnected_occurrence(self):
        g = path_graph(3)
        td = TreeDecomposition(
            ((0, frozenset({0, 1})), (1, frozenset({1, 2})), (2, frozenset({0}))),
            ((0, 1), (1, 2)),
        )
        report = verify_tree_decomposition(g, td)
        assert not report.valid and "not connected" in report.violation

    def test_reports_non_tree(self):
        g = path_graph(2)
        td = TreeDecomposition(((0, frozenset({0, 1})), (1, frozenset({0, 1}))), ())
        assert not verify_tree_decomposition(g, td).valid

    def test_accepts_valid(self):
        g = cycle_graph(5)
        r = treewidth_exact(g)
        assert verify_tree_decomposition(g, r.decomposition).valid


class TestHelpers:
    def test_min_fill_is_an_upper_bound(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 9))
            order, ub = min_fill_order(g)
            td = decomposition_from_order(g, order)
            assert td.width <= ub
            assert verify_tree_decomposition(g, td).valid
            assert ub >= treewidth_exact(g).width

    def test_minor_min_width_is_a_lower_bound(self):
        rng = random.Random(37)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 9))
            assert minor_min_width(g) <= treewidth_exact(g).width

    def test_almost_simplicial_matches_definition(self):
        """On elimination states of small random graphs, the bitmask test
        and the oracle's walk agree with the definition: some neighbour c
        (or none) leaves the other fill neighbours a clique."""
        rng = random.Random(3131)
        kinds = Counter()
        for _ in range(400):
            g = random_graph(rng, rng.randint(4, 12), rng.choice((0.3, 0.5, 0.7)))
            adj = [sum(1 << u for u in g.adj[v]) for v in range(g.n)]
            nbrs = {v: set(g.adj[v]) for v in range(g.n)}
            eliminated = 0
            for v in rng.sample(range(g.n), rng.randrange(g.n)):
                _naive_eliminate(nbrs, v)
                eliminated |= 1 << v
            fill = [sum(1 << u for u in nbrs.get(v, ())) for v in range(g.n)]
            for v, around in nbrs.items():
                missing = [(a, b) for a, b in combinations(sorted(around), 2) if b not in nbrs[a]]
                through = [c for c in around if all(c in ab for ab in missing)]
                expected = not missing or bool(through)
                assert _almost_simplicial(fill, v) == expected, (sorted(g.edges), eliminated, v)
                assert naive_almost_simplicial(adj, eliminated, v) == expected, (sorted(g.edges), eliminated, v)
                if len(around) >= 3:
                    if not missing:
                        kinds["simplicial"] += 1
                    elif len(missing) == 1:
                        kinds["one missing pair"] += 1
                    elif through:  # the first missing pair's first or second vertex meets them all
                        kinds["through " + ("first" if through[0] == missing[0][0] else "second")] += 1
                    else:
                        kinds["neither"] += 1
        assert len(kinds) == 5, kinds

    def test_isolated_vertices(self):
        g = graph_from_edges(4, [(0, 1)])
        r = treewidth_exact(g)
        assert r.width == 1
        assert verify_tree_decomposition(g, r.decomposition).valid


def _pinned_corpus() -> list:
    """Seeded graphs on which the heuristics must match the naive rescans."""
    rng = random.Random(8128)
    graphs = [graph_from_edges(0, []), graph_from_edges(1, []), graph_from_edges(5, []),
              graph_from_edges(7, [(0, 1), (1, 2), (4, 5)])]
    graphs += [complete_graph(n) for n in range(2, 13)]
    graphs += [grid_graph(r, c) for r in range(1, 7) for c in range(r, 9)]
    for i in range(120):  # every density from nearly empty to nearly complete
        graphs.append(random_graph(rng, rng.randint(2, 40), (i % 10 + 0.5) / 10))
    graphs += [random_sparse(rng, 18 + i % 6) for i in range(60)]
    for _ in range(6):
        graphs.append(random_tree(rng, rng.randint(2, 300)))
        spine = rng.randint(2, 200)
        legs = rng.randint(0, 300 - spine)
        graphs.append(graph_from_edges(spine + legs, [(i, i + 1) for i in range(spine - 1)]
                                       + [(rng.randrange(spine), spine + j) for j in range(legs)]))
    return graphs


def _corrupt(rng: random.Random, g, td: TreeDecomposition) -> TreeDecomposition:
    """One random damage to a decomposition's bags or tree edges."""
    bags = [list(b) for b in td.bags]
    edges = list(td.edges)
    kind = rng.randrange(7)
    i = rng.randrange(len(bags))
    ids = [b[0] for b in bags]
    if kind == 0 and bags[i][1]:
        bags[i][1] = bags[i][1] - {rng.choice(sorted(bags[i][1]))}
    elif kind == 1:
        bags[i][1] = bags[i][1] | {rng.randrange(g.n)}
    elif kind == 2:
        bags[i][1] = bags[i][1] | {rng.choice([-1, g.n])}
    elif kind == 3 and edges:
        a, _ = edges.pop(rng.randrange(len(edges)))
        edges.append((a, rng.choice(ids)))
    elif kind == 4 and edges:
        edges.pop(rng.randrange(len(edges)))
    elif kind == 5:
        bags[i][0] = rng.choice(ids + [max(ids) + 1])
    else:
        j = rng.randrange(len(bags))
        bags[i][1], bags[j][1] = bags[j][1], bags[i][1]
    return TreeDecomposition(tuple((b, frozenset(s)) for b, s in bags), tuple(edges))


def _outcome(search, g, k: int, budget: int | None):
    try:
        return search(g, k, budget)
    except BudgetExceeded:
        return "budget"


def _small_cases() -> list:
    cases = [(graph_from_edges(n, []), k) for n in (0, 1, 5) for k in range(3)]
    rng = random.Random(9090)  # criterion 9's graphs
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 8))
        cases += [(g, k) for k in range(g.n)]
    rng = random.Random(15)
    for i in range(200):  # n <= 15, every density from nearly empty to nearly complete
        g = random_graph(rng, rng.randint(2, 15), (i % 10 + 0.5) / 10)
        cases += [(g, k) for k in range(7)]
    return cases


def _sparse_cases() -> list:
    rng = random.Random(2318)
    cases = []
    for i in range(24):  # the benchmark's gate: k = minor_min_width and k + 1
        g = random_sparse(rng, 18 + i % 6)
        k = minor_min_width(g)
        cases += [(g, k), (g, k + 1)]
    # a graph that needs the search, with its vertices spread among five isolated ones
    while True:
        place = rng.sample(range(25), 20)
        g = graph_from_edges(25, [(place[u], place[v]) for u, v in random_sparse(rng, 20).edges])
        if min_fill_order(g)[1] > minor_min_width(g):
            return cases + [(g, minor_min_width(g))]


def _grid_cases() -> list:
    return [(grid_graph(side), k) for side in (3, 4, 5) for k in (side - 1, side)]


_CORPORA = {"small": _small_cases, "sparse": _sparse_cases, "grids": _grid_cases}


def _no_worse(g, k: int, old_order, old_states: int) -> int:
    """The subset search decides (g, k) as an older search did, in no more
    states, and any order it returns has width <= k; returns its states."""
    order, states = search_with_states(g, k, None)
    assert (order is None) == (old_order is None) and states <= old_states, (k, sorted(g.edges))
    if order is not None:
        report = verify_tree_decomposition(g, decomposition_from_order(g, order))
        assert report.valid and report.width <= k, (k, sorted(g.edges))
    return states


def _same_search(g, k: int) -> int:
    """The subset search gives the naive DFS's order and state count, and
    its outcome at each budget; returns that count.  Both searches are
    deterministic and check the budget before each expansion, so equal
    unbudgeted counts mean equal cut-offs at every budget: both raise
    BudgetExceeded one state short of the count, and neither at it."""
    order, states = search_with_states(g, k, None)
    assert naive_search(g, k, None) == (order, states), (k, sorted(g.edges))
    if states:
        for search in (treewidth_order, naive_treewidth_order):
            assert _outcome(search, g, k, states - 1) == "budget", (search.__name__, k, sorted(g.edges))
            assert _outcome(search, g, k, states) == order, (search.__name__, k, sorted(g.edges))
    for budget in (1, 10, 100, 4000):
        assert _outcome(treewidth_order, g, k, budget) == _outcome(naive_treewidth_order, g, k, budget), (k, budget)
    return states


class TestAgainstNaive:
    """The heuristics and the verifier must give exactly what the naive
    full rescans in `oracles` give."""

    def test_min_fill_order(self):
        for g in _pinned_corpus():
            assert min_fill_order(g) == naive_min_fill_order(g), sorted(g.edges)

    def test_minor_min_width(self):
        for g in _pinned_corpus():
            assert minor_min_width(g) == naive_minor_min_width(g), sorted(g.edges)

    def test_treewidth_order_small(self):
        assert sum(_same_search(g, k) for g, k in _small_cases()) == 171

    def test_treewidth_order_sparse(self):
        states = [_same_search(g, k) for g, k in _sparse_cases()]
        assert sum(states) == 7432
        assert states[-1] > 0  # the graph among isolated vertices

    @pytest.mark.parametrize("side", [3, 4, 5])
    def test_treewidth_order_grids(self, side):
        for k in (side - 1, side):
            _same_search(grid_graph(side), k)

    @pytest.mark.parametrize("corpus, floor", [("small", 1000), ("sparse", 50_000), ("grids", 500_000)])
    def test_treewidth_order_matches_degree_one_rule(self, corpus, floor):
        """Branching on an almost simplicial candidate alone keeps the
        decisions of the search that did so only with a first candidate of
        fill degree <= 1, in no more states, and each order it returns has
        width <= k; that search still walks `floor` states."""
        walked = 0
        for g, k in _CORPORA[corpus]():
            old_order, old_states = naive_search_degree_one(g, k, None)
            _no_worse(g, k, old_order, old_states)
            walked += old_states
        assert walked > floor

    @pytest.mark.parametrize("corpus, spared", [("small", 174), ("sparse", 15078), ("grids", 0)])
    def test_treewidth_order_against_first_candidate_rule(self, corpus, spared):
        """Testing every candidate for almost-simpliciality, not only the
        first, keeps each decision of the search that tested the first, in
        no more states, and each order it returns has width <= k; `spared`
        counts the states it saves."""
        saved = 0
        for g, k in _CORPORA[corpus]():
            old_order, old_states = naive_search_first_candidate(g, k, None)
            saved += old_states - _no_worse(g, k, old_order, old_states)
        assert saved == spared

    def test_verifier_verdicts_and_messages(self):
        rng = random.Random(4242)
        seen = set()
        for g in _pinned_corpus()[:120]:
            if g.n == 0:
                continue
            td = decomposition_from_order(g, naive_min_fill_order(g)[0])
            for _ in range(8):
                bad = _corrupt(rng, g, td)
                if rng.random() < 0.3:
                    bad = _corrupt(rng, g, bad)
                report = verify_tree_decomposition(g, bad)
                assert report == naive_verify_tree_decomposition(g, bad)
                seen.add(re.sub(r"\[.*\]|-?\d+", "#", report.violation or "valid"))
        assert len(seen) == 9, seen  # each of the eight messages, and a pass


class TestScale:
    """Thousands of vertices: each elimination, contraction and check
    costs what it changes, not a rescan of the whole graph."""

    def test_grid5_search_cut_by_almost_simplicial_vertices(self):
        # with the first candidate tried alone only at fill degree <= 1 (and an
        # unsound cut on the vertices of fill degree above k): 533,496 states
        # per search, about 5 s for these two on a 2-core x86-64 VM
        start = time.perf_counter()
        assert treewidth_decide(grid_graph(5), 4) is False
        assert search_with_states(grid_graph(5), 4, None) == (None, 73)
        r = treewidth_exact(grid_graph(5))
        assert r.width == 5 and r.expanded == 73
        assert time.perf_counter() - start < 0.5

    def test_grid7_search_state_cost(self):
        # every fill degree was a fresh walk through the eliminated set: about 9 s on a 2-core x86-64 VM;
        # testing every candidate for almost-simpliciality costs 7-11 us a state there (5 us when only
        # the first was tested)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            treewidth_order(grid_graph(7), 5, budget=200_000)
        assert time.perf_counter() - start < 4.0

    def test_grid6_is_exact(self):
        # with only the first candidate tested, k = 5 was still undecided after 3 million states (25 s)
        start = time.perf_counter()
        r = treewidth_exact(grid_graph(6), 200_000)
        assert (r.status, r.width, r.lb, r.ub) == ("exact", 6, 6, 6)
        assert time.perf_counter() - start < 2.0
        assert verify_tree_decomposition(grid_graph(6), r.decomposition).width == 6

    def test_exact_on_a_grid_with_a_1200_vertex_tail(self):
        # one Python frame per eliminated vertex raised RecursionError in 0.2 s
        r = treewidth_exact(grid_with_tail())
        assert r.status == "exact" and r.width == 5
        assert verify_tree_decomposition(grid_with_tail(), r.decomposition).width == 5

    def test_grid_with_a_1200_vertex_tail_in_bounded_memory(self):
        # every child copied its parent's fill and degree rows: a 25.9 MB traced peak
        g = grid_with_tail()
        tracemalloc.start()
        try:
            r = treewidth_exact(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.status == "exact" and r.width == 5
        assert peak < 10e6, peak

    @pytest.mark.parametrize("g", [path_graph(5000), random_tree(random.Random(5000), 5000)], ids=["path", "tree"])
    def test_exact_on_5000_vertices(self, g):
        # every live vertex was rescored at every step: 15-25 s at this size
        start = time.perf_counter()
        r = treewidth_exact(g)
        assert r.status == "exact" and r.width == 1
        assert time.perf_counter() - start < 3.0
