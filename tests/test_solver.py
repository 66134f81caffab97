import hashlib
import inspect
import random
import sys
import time
from collections import Counter
from itertools import accumulate, combinations

import pytest

from corpus import atlas_graphs, random_cograph, random_graph, random_graphs, random_tree
from oracles import (
    _scored,
    bf_decide_twinwidth,
    bf_twinwidth,
    has_induced_p4,
    naive_decide_twinwidth_at_most,
    naive_greedy_pairs,
    naive_twin_pairs,
    positional_greedy,
)
from twinwidth.graphs import (
    complete_bipartite,
    complete_graph,
    contract,
    cycle_graph,
    graph_from_edges,
    grid_graph,
    max_red_degree,
    path_graph,
    relabel,
    trigraph_from_graph,
)
from twinwidth import solver
from twinwidth.sequences import ReplayState, verify_width, width_trace
from twinwidth.solver import (
    decide_twinwidth_at_most,
    greedy_sequence,
    twinwidth_exact,
    twinwidth_zero,
)
from twinwidth.structure import gen_tww3_family, gen_wall


class TestDecide:
    def test_cograph_at_zero(self):
        r = decide_twinwidth_at_most(complete_graph(4), 0)
        assert r.status == "yes"
        assert verify_width(complete_graph(4), r.sequence) == 0

    def test_p4_threshold(self):
        assert decide_twinwidth_at_most(path_graph(4), 0).status == "no"
        assert decide_twinwidth_at_most(path_graph(4), 1).status == "yes"

    def test_c5_threshold(self):
        assert decide_twinwidth_at_most(cycle_graph(5), 1).status == "no"
        assert decide_twinwidth_at_most(cycle_graph(5), 2).status == "yes"

    def test_budget_exhaustion_reports_unknown(self):
        r = decide_twinwidth_at_most(cycle_graph(7), 2, budget=3)
        assert r.status == "unknown"
        assert r.sequence is None

    def test_negative_budget_is_rejected(self):
        # these returned UNKNOWN without searching
        with pytest.raises(ValueError, match="budget"):
            decide_twinwidth_at_most(cycle_graph(7), 2, budget=-5)
        with pytest.raises(ValueError, match="budget"):
            twinwidth_exact(path_graph(4), 2, budget=-1)

    def test_monotone_in_d(self):
        rng = random.Random(5)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 7))
            prev = False
            for d in range(g.n):
                now = decide_twinwidth_at_most(g, d).status == "yes"
                assert now or not prev
                prev = prev or now

    def test_every_yes_certificate_verifies(self):
        rng = random.Random(6)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 8))
            for d in (0, 1, 2, 3):
                r = decide_twinwidth_at_most(g, d)
                if r.status == "yes":
                    assert verify_width(g, r.sequence) <= d
                    break

    def test_deterministic_certificates(self):
        g = random_graph(random.Random(7), 8)
        a = decide_twinwidth_at_most(g, 2)
        b = decide_twinwidth_at_most(g, 2)
        assert a == b


class TestExact:
    @pytest.mark.parametrize(
        "g,value",
        [(cycle_graph(4), 0), (path_graph(4), 1), (cycle_graph(5), 2), (complete_bipartite(3, 3), 0)],
    )
    def test_named_values(self, g, value):
        r = twinwidth_exact(g, 4)
        assert (r.status, r.value) == ("value", value)

    def test_family_small_instance(self):
        from twinwidth.structure import gen_tww3_family

        g, _ = gen_tww3_family(2)
        r = twinwidth_exact(g, 3)
        assert r.status == "value" and r.value <= 3
        assert verify_width(g, r.sequence) == r.value

    def test_exceeds_cap(self):
        assert twinwidth_exact(cycle_graph(5), 1).status == "exceeds-cap"

    def test_agrees_with_brute_force_on_small_atlas(self):
        for g in atlas_graphs(6):
            r = twinwidth_exact(g, g.n)
            assert r.status == "value"
            assert r.value == bf_twinwidth(g)

    def test_agrees_with_brute_force_on_sampled_8_vertex_graphs(self):
        rng = random.Random(88)
        for _ in range(80):
            g = random_graph(rng, 8)
            assert twinwidth_exact(g, 8).value == bf_twinwidth(g)


def _outcome(r):
    return (r.status, r.value, r.expanded, None if r.sequence is None else r.sequence.pairs())


class TestSearchOrderPinned:
    """The DFS's child order decides which certificate comes back and how
    many states a budget buys; these outcomes pin it exactly."""

    @pytest.mark.parametrize(
        "name,g,budget,expected",
        [
            ("C8", cycle_graph(8), 10**6,
             ("value", 2, 9, ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13)))),
            ("C12", cycle_graph(12), 10**6,
             ("value", 2, 13, ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15),
                               (16, 17), (18, 19), (20, 21)))),
            ("grid3x4", grid_graph(3, 4), 10**6,
             ("value", 2, 42, ((0, 5), (3, 6), (4, 9), (2, 12), (1, 15), (7, 10), (8, 14), (11, 13),
                                (16, 17), (18, 19), (20, 21)))),
            ("grid4x4", grid_graph(4, 4), 10**6,
             ("value", 3, 274, ((0, 5), (1, 4), (2, 7), (3, 6), (8, 13), (9, 12), (10, 15), (11, 18),
                                 (14, 21), (16, 20), (17, 19), (22, 23), (24, 25), (26, 27), (28, 29)))),
            ("wall4", gen_wall(4)[0], 10**6,
             ("value", 2, 20, ((1, 3), (13, 15), (0, 4), (2, 7), (8, 12), (11, 14), (16, 18), (6, 22),
                                (5, 23), (17, 20), (10, 25), (9, 24), (19, 21), (26, 27), (28, 29)))),
            ("tww3-3", gen_tww3_family(3)[0], 10**6,
             ("value", 2, 14, ((0, 2), (3, 6), (5, 8), (4, 7), (9, 13), (11, 14), (16, 17), (1, 10),
                                (12, 15), (18, 19), (20, 21)))),
            ("tww3-4", gen_tww3_family(4)[0], 10**6,
             ("value", 3, 121, ((0, 4), (3, 7), (8, 12), (11, 15), (1, 5), (2, 6), (9, 13), (10, 14),
                                 (16, 20), (19, 21), (22, 28), (17, 30), (23, 29), (18, 32), (24, 25),
                                 (26, 27), (31, 33), (34, 35), (36, 37)))),
            ("grid4x5@100", grid_graph(4, 5), 100, ("unknown", None, 103, None)),
            ("tww3-4@100", gen_tww3_family(4)[0], 100,
             ("value", 3, 121, ((0, 4), (3, 7), (8, 12), (11, 15), (1, 5), (2, 6), (9, 13), (10, 14),
                                 (16, 20), (19, 21), (22, 28), (17, 30), (23, 29), (18, 32), (24, 25),
                                 (26, 27), (31, 33), (34, 35), (36, 37)))),
        ],
    )
    def test_named_graphs(self, name, g, budget, expected):
        assert _outcome(twinwidth_exact(g, 4, budget)) == expected

    def test_seeded_random_outcomes(self):
        """Status, value, expansions and pairs over 300 random graphs with
        n <= 11 and budgets 5, 30 and 10**6, hashed."""
        rng = random.Random(4040)
        lines = []
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 11))
            for budget in (5, 30, 10**6):
                lines.append(repr(_outcome(twinwidth_exact(g, 4, budget))))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        assert digest == "b889b4b35ef8c9a1"

    def test_decisions_match_brute_force(self):
        rng = random.Random(4242)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 11))
            for d in range(3):
                r = decide_twinwidth_at_most(g, d)
                assert (r.status == "yes") == bf_decide_twinwidth(g, d), (d, sorted(g.edges))
                if r.status == "yes":
                    assert verify_width(g, r.sequence) <= d


def _decision(r):
    return r.status, r.expanded, None if r.sequence is None else r.sequence.pairs()


class TestWalkMatchesRecursiveSearch:
    """The explicit-stack walk gives the recursive DFS's status, expansions
    and certificate at every budget, including budgets that cut it partway."""

    BUDGETS = (1, 10, 100, solver.DEFAULT_BUDGET)

    def _same(self, g, d: int) -> list[str]:
        statuses = []
        for budget in self.BUDGETS:
            r = decide_twinwidth_at_most(g, d, budget)
            assert _decision(r) == _decision(naive_decide_twinwidth_at_most(g, d, budget)), (d, budget, sorted(g.edges))
            statuses.append(r.status)
        return statuses

    def test_seeded_random_graphs(self):
        rng = random.Random(2424)
        statuses = Counter()
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 12))
            for d in range(4):
                statuses.update(self._same(g, d))
        assert min(statuses["yes"], statuses["no"], statuses["unknown"]) >= 50, statuses

    @pytest.mark.parametrize("g", [gen_tww3_family(n)[0] for n in (1, 2, 3, 4)] + [gen_wall(4)[0], gen_wall(5)[0]],
                             ids=["tww3-1", "tww3-2", "tww3-3", "tww3-4", "wall4", "wall5"])
    def test_paper_families(self, g):
        for d in range(4):
            self._same(g, d)


class TestDeepSearch:
    def test_no_frame_per_level(self):
        # one frame per level raised RecursionError at depth about 200
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            r = decide_twinwidth_at_most(path_graph(300), 1, 1000)
        finally:
            sys.setrecursionlimit(limit)
        assert r.status == "yes" and r.expanded == 299

    def test_yes_on_a_1000_vertex_path(self):
        # scoring every pair at every expansion took 38 s on a 2-core x86-64
        # VM (20-26 s at 800 vertices); inherited first checks take 0.7 s
        start = time.perf_counter()
        r = decide_twinwidth_at_most(path_graph(1000), 1)
        assert time.perf_counter() - start < 5.0
        assert r.status == "yes" and r.expanded == 999


def _trigraph_rows(t, live: list[int]) -> tuple[list[int], list[int]]:
    """The quotient rows of trigraph t, parts at the positions of `live`."""
    pos = {x: k for k, x in enumerate(live)}
    adjs = [sum(1 << pos[y] for y in t.black_adj[x] | t.red_adj[x]) for x in live]
    reds = [sum(1 << pos[y] for y in t.red_adj[x]) for x in live]
    return adjs, reds


def _slot_rows(t, slot: dict[int, int], n: int) -> tuple[list[int], list[int]]:
    """The quotient rows of trigraph t over the slots of its vertices, a
    dead slot's rows empty."""
    adjs, reds = [0] * n, [0] * n
    for x in t.vertices:
        adjs[slot[x]] = sum(1 << slot[y] for y in t.black_adj[x] | t.red_adj[x])
        reds[slot[x]] = sum(1 << slot[y] for y in t.red_adj[x])
    return adjs, reds


def _ranks(scored) -> list[tuple[int, tuple[int, int]]]:
    return sorted((deg, uv) for deg, uv, *_ in scored)


def _scores_along_random_paths(rng: random.Random, graphs) -> tuple[int, int]:
    """Along one random merge path per graph, checks after every merge that
    the passing pairs a state inherits, plus its touched pairs checked
    afresh, are those of a full first-check pass, also when only the pairs
    `_reopened` lists are checked afresh, and that they rank every merge as
    the positional oracle `_scored` does and as the contracted trigraph's
    max red degree, at d = 0-3 and unbounded.  Returns how many merges were
    scored and in how many some row is red to both merged parts."""
    scored = both = 0
    for g in graphs:
        n = g.n
        bounds = (0, 1, 2, 3, n)
        t = trigraph_from_graph(g)
        slot = list(range(n))
        exts, live, adjs, reds = list(range(n)), list(range(n)), solver._singleton_rows(g), [0] * n
        kept = {d: solver._first_checks([], -1, live, adjs, reds, d) for d in bounds}
        by_partners, livemask = dict(kept), (1 << n) - 1
        for x in range(n, 2 * n - 1):
            ids = [exts[s] for s in live]
            assert ids == sorted(t.vertices)
            pos_adjs, pos_reds = _trigraph_rows(t, ids)
            want = {(a, b): max_red_degree(contract(t, a, b, x)) for a, b in combinations(ids, 2)}
            for d in bounds:
                assert sorted(kept[d]) == sorted(solver._first_checks([], -1, live, adjs, reds, d))
                assert sorted(by_partners[d]) == sorted(kept[d])
                got = _ranks(solver._ranked(kept[d], exts, live, reds, d))
                assert got == _ranks(_scored(ids, pos_adjs, pos_reds, d))
                assert got == sorted((deg, uv) for uv, deg in want.items() if deg <= d)
            ranked = solver._ranked(kept[n], exts, live, reds, n)
            scored += len(ranked)
            both += sum(1 for _, _, i, j, _ in ranked if reds[i] & reds[j])
            a, b = rng.sample(ids, 2)
            i, j = sorted((slot[a], slot[b]))
            merged_red = next(m for _, _, p, q, m in ranked if (p, q) == (i, j))
            partners = solver._reopened(adjs, reds, i, j)
            touched = solver._merge(exts, live, adjs, reds, i, j, merged_red, x)
            livemask &= ~(1 << i)
            kept = {d: solver._first_checks(kept[d], touched, live, adjs, reds, d) for d in bounds}
            by_partners = {d: solver._child_checks(by_partners[d], touched, dict(partners), j, livemask, live, adjs, reds, d)
                           for d in bounds}
            t = contract(t, a, b, x)
            slot.append(j)
    return scored, both


class TestChildScores:
    """A state inherits its parent's passing first checks away from the
    slots a merge touched; with the rest checked afresh, every merge's score
    must equal the max red degree of the contracted trigraph."""

    def test_scores_match_contract(self):
        rng = random.Random(2024)
        scored, _ = _scores_along_random_paths(rng, (random_graph(rng, rng.randint(2, 11)) for _ in range(60)))
        assert scored > 1000

    def test_scores_match_contract_on_larger_denser_graphs(self):
        # a row red to both merged parts loses a red edge: the -1 move
        rng = random.Random(2025)
        graphs = [random_graph(rng, rng.randint(12, 16), rng.uniform(0.5, 0.9)) for _ in range(24)]
        graphs += [random_graph(rng, rng.randint(12, 16), rng.uniform(0.15, 0.3)) for _ in range(8)]
        scored, both = _scores_along_random_paths(rng, graphs)
        assert scored > 15000 and both > 5000


class TestChildRows:
    """`_merge` rewrites rows in place on stable slots: the product takes
    the higher slot, and only the merged pair's rows and their neighbours'
    change.  After each merge of a random path the rows must be those of
    the `graphs.contract` trigraph, slot for slot, and the live slots must
    follow certificate ids."""

    def test_rows_match_contract(self):
        rng = random.Random(1729)
        graphs = [random_graph(rng, rng.randint(2, 16), rng.uniform(0.05, 0.25)) for _ in range(40)]
        graphs += [random_graph(rng, rng.randint(2, 16), rng.uniform(0.6, 0.95)) for _ in range(40)]
        steps = 0
        for g in graphs:
            n = g.n
            t = trigraph_from_graph(g)
            slot = list(range(n))
            exts, live, adjs, reds = list(range(n)), list(range(n)), solver._singleton_rows(g), [0] * n
            for x in range(n, 2 * n - 1):
                i, j = sorted(rng.sample(live, 2))
                pairs = solver._first_checks([], -1, live, adjs, reds, n)
                merged_red = next(pair[4] for pair in pairs if pair[1:3] == (i, j))
                a, b = exts[i], exts[j]
                before = adjs[:], reds[:]
                touched = solver._merge(exts, live, adjs, reds, i, j, merged_red, x)
                t = contract(t, a, b, x)
                slot.append(j)
                assert (adjs, reds) == _slot_rows(t, slot, n), sorted(g.edges)
                assert [exts[s] for s in live] == sorted(t.vertices)
                assert touched == (before[0][i] | before[0][j] | 1 << i | 1 << j)
                for w in range(n):
                    if not touched >> w & 1:
                        assert (adjs[w], reds[w]) == (before[0][w], before[1][w])
                steps += 1
        assert steps > 500


class TestZero:
    def test_biclique_is_cograph(self):
        s = twinwidth_zero(complete_bipartite(3, 3))
        assert s is not None
        assert verify_width(complete_bipartite(3, 3), s) == 0

    def test_p4_is_minimal_non_cograph(self):
        assert twinwidth_zero(path_graph(4)) is None

    def test_single_vertex(self):
        assert twinwidth_zero(complete_graph(1)) is not None

    def test_matches_induced_p4_freeness(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7))
            assert (twinwidth_zero(g) is None) == has_induced_p4(g)

    def test_zero_implies_exact_zero(self):
        rng = random.Random(12)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7))
            if twinwidth_zero(g) is not None:
                assert twinwidth_exact(g, 0).value == 0


class TestAgainstContractOracles:
    """greedy_sequence and twinwidth_zero walk the exact search's quotient
    rows; the oracles score every pair with an immutable `graphs.contract`."""

    def test_greedy_pairs_match(self):
        named = [cycle_graph(8), grid_graph(4, 4), gen_wall(4)[0], gen_tww3_family(3)[0]]
        jumps = 0
        for g in named + random_graphs(2718, 120, 10) + random_graphs(1414, 6, 14, 12):
            s, _ = greedy_sequence(g)
            assert list(s.pairs()) == naive_greedy_pairs(g), sorted(g.edges)
            widths = [0, *accumulate(width_trace(g, s), max)]
            jumps += any(b - a >= 2 for a, b in zip(widths, widths[1:]))
        # greedy steps its bound up one at a time from the width so far, so
        # a step that raises the width by 2 or more rescores at every bound
        assert jumps >= 5

    def test_twin_merges_match(self):
        rng = random.Random(1618)
        cographs = [random_cograph(rng, rng.randint(1, 16)) for _ in range(120)]
        for g in random_graphs(3141, 200, 10) + cographs:
            s = twinwidth_zero(g)
            assert (None if s is None else list(s.pairs())) == naive_twin_pairs(g), sorted(g.edges)
        assert all(twinwidth_zero(g) is not None for g in cographs)

    def test_greedy_matches_the_positional_kernel(self):
        # the positional kernel scores every pair afresh; stable slots keep
        # the passing pairs across steps until the bound rises
        rng = random.Random(2029)
        graphs = [random_graph(rng, rng.randint(1, 30), rng.uniform(0.05, 0.6)) for _ in range(150)]
        graphs += [random_tree(rng, rng.randint(1, 60)) for _ in range(30)]
        graphs += [random_cograph(rng, rng.randint(1, 30)) for _ in range(30)]
        for g in graphs:
            for cap in (0, 1, 2, g.n):
                assert solver._greedy(g, cap) == positional_greedy(g, cap), (cap, sorted(g.edges))

    def test_zero_is_greedy_capped_at_zero(self):
        rng = random.Random(2027)
        cographs = [random_cograph(rng, rng.randint(1, 30)) for _ in range(100)]
        for g in random_graphs(2028, 200, 12) + cographs:
            s, w = greedy_sequence(g)
            z = twinwidth_zero(g)
            assert (z is None) == (w > 0), sorted(g.edges)
            assert z is None or z == s, sorted(g.edges)


class TestHeuristicScale:
    def test_zero_on_a_300_vertex_cograph(self):
        g = random_cograph(random.Random(300), 300)
        start = time.perf_counter()
        s = twinwidth_zero(g)
        assert time.perf_counter() - start < 2.0
        assert s is not None and verify_width(g, s) == 0

    def test_greedy_on_twin_rich_graphs(self):
        # scoring every pair at every step took 1.6-6.2 s per graph on a 2-core x86-64 VM
        graphs = [complete_graph(300), graph_from_edges(300, []), complete_bipartite(150, 150),
                  random_cograph(random.Random(300), 300)]
        zero = [twinwidth_zero(g) for g in graphs]
        start = time.perf_counter()
        got = [greedy_sequence(g) for g in graphs]
        assert time.perf_counter() - start < 1.0
        assert got == [(s, 0) for s in zero]

    def test_greedy_on_a_400_vertex_random_tree(self):
        # scoring every pair at every step took 1.8-3.8 s on a 2-core x86-64
        # VM; inherited first checks take 0.4 s, with the same certificate
        g = random_tree(random.Random(400), 400)
        start = time.perf_counter()
        s, w = greedy_sequence(g)
        assert time.perf_counter() - start < 1.5
        assert w == 6 and hashlib.sha256(repr(s.pairs()).encode()).hexdigest()[:16] == "65d093ec7ae5ad3e"

    def test_greedy_on_dense_random_150(self):
        g = random_graph(random.Random(150), 150, 0.3)
        start = time.perf_counter()
        s, w = greedy_sequence(g)
        assert time.perf_counter() - start < 3.0
        assert verify_width(g, s) == w


class TestSearchAndVerifierStaySeparate:
    """Certificates are replayed by code that did not make them: the
    solver never touches the replay kernel, which only replays."""

    def test_solver_does_not_use_the_replay_kernel(self):
        assert "ReplayState" not in inspect.getsource(solver)
        assert not hasattr(ReplayState, "merge_cost")


class TestGreedy:
    def test_cographs_stay_at_zero(self):
        for g in (complete_graph(5), complete_bipartite(2, 4)):
            _, w = greedy_sequence(g)
            assert w == 0

    def test_p4(self):
        s, w = greedy_sequence(path_graph(4))
        assert w == 1
        assert verify_width(path_graph(4), s) == 1

    def test_family_width_recorded_not_asserted(self):
        from twinwidth.structure import gen_tww3_family

        g, _ = gen_tww3_family(3)
        s, w = greedy_sequence(g)
        exact = twinwidth_exact(g, 4).value
        assert w >= exact
        assert verify_width(g, s) == w

    def test_relabel_determinism(self):
        g = random_graph(random.Random(3), 7)
        s1, w1 = greedy_sequence(g)
        s2, w2 = greedy_sequence(g)
        assert (s1, w1) == (s2, w2)
