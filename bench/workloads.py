"""The four benchmark workloads: seeded inputs, the timed ops, and the
checks on their outputs.

An op is one instance processed end to end the way a CLI would process
it, through the library's public functions.  Its inputs are plain data
(vertex counts, edge lists, merge pairs) made in set-up from the seed, so
every execution builds its own graph and sequence objects and no cached
property survives from one pass to the next.

Each op has three parts:
  run()          the timed program flow; returns the raw output;
  summary(raw)   the values, statuses, verdicts and widths that enter the
                 digest, plus the machine-independent counts;
  verify(raw)    an independent check of the output, run once per op,
                 untimed; raises CheckFailed on a wrong output.
"""

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Callable

EXACT_CAP = 4
EXACT_BUDGET = 100  # expansions per decision level of twinwidth_exact
GATE_T = 2
CERTIFY_K = 3
TW_BUDGET = 4000  # subset-search states for the tree-width gate and solver
WITNESS_AUDITS = 3  # audit_sequence runs from the first hits of each chain
CONTRACT_CROSSCHECK_MAX_N = 200


class CheckFailed(AssertionError):
    """An op's output disagrees with an independent check."""


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    summary: Callable[[Any], dict]
    verify: Callable[[Any], None]
    counts: Callable[[Any], dict] = field(default=lambda raw: {})


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ------------------------------------------------------------ generators


def random_edges(rng: random.Random, n: int, p: float) -> tuple:
    return tuple(e for e in combinations(range(n), 2) if rng.random() < p)


def sparse_edges(rng: random.Random, n: int, extra: int) -> tuple:
    """A random tree plus `extra` random chords."""
    es = {(rng.randrange(i), i) for i in range(1, n)}
    while len(es) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        es.add((u, v))
    return tuple(sorted(es))


def tree_edges(rng: random.Random, n: int) -> tuple:
    return tuple((rng.randrange(i), i) for i in range(1, n))


def caterpillar_edges(rng: random.Random, spine: int, legs: int) -> tuple[int, tuple]:
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), spine + j) for j in range(legs)]
    return spine + legs, tuple(edges)


def ear_edges(rng: random.Random, ears: int) -> tuple[int, tuple]:
    """A 5-cycle with `ears` paths of length 4 hung on existing edges
    (series-parallel, so tree-width 2)."""
    edges = {(i, (i + 1) % 5) if i < 4 else (0, 4) for i in range(5)}
    n = 5
    for _ in range(ears):
        u, v = rng.choice(sorted(edges))
        chain = [u, n, n + 1, n + 2, v]
        n += 3
        edges |= {tuple(sorted(e)) for e in zip(chain, chain[1:])}
    return n, tuple(sorted(edges))


def subdivided_k4_edges(times: int) -> tuple[int, tuple]:
    edges = []
    n = 4
    for u, v in combinations(range(4), 2):
        chain = [u, *range(n, n + times), v]
        n += times
        edges.extend(zip(chain, chain[1:]))
    return n, tuple(edges)


def cycle_edges(n: int) -> tuple:
    return tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)


def random_merge_pairs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    live = list(range(n))
    pairs = []
    for j in range(n - 1):
        a, b = rng.sample(range(len(live)), 2)
        pairs.append((live[a], live[b]))
        for idx in sorted((a, b), reverse=True):
            live.pop(idx)
        live.append(n + j)
    return pairs


def corrupt_pairs(rng: random.Random, n: int, pairs: list) -> tuple[list, int]:
    """Aim one step (not the first) at a vertex an earlier step consumed."""
    j = rng.randrange(1, len(pairs))
    dead = sorted({x for pair in pairs[:j] for x in pair})
    u, v = pairs[j]
    bad = list(pairs)
    bad[j] = (rng.choice([x for x in dead if x != v]), v)
    return bad, j


def stratum(rng: random.Random, lo: float, hi: float, i: int, count: int) -> float:
    """A seeded draw from the i-th of `count` equal slices of [lo, hi]."""
    width = (hi - lo) / count
    return lo + width * (i + rng.random())


# ------------------------------------------------------------- tww-solve


def tww_solve(tw, rng: random.Random) -> list[Op]:
    g_, st, so, sq = tw.graphs, tw.structure, tw.solver, tw.sequences
    inputs: list[tuple[str, str, int, tuple]] = []

    def add(kind, label, g):
        inputs.append((kind, label, g.n, tuple(sorted(g.edges))))

    for n in (8, 12, 16):
        add("exact", f"cycle{n}", g_.cycle_graph(n))
    for r, c in ((3, 4), (4, 4), (3, 6), (4, 5), (5, 5), (5, 6)):
        add("exact", f"grid{r}x{c}", g_.grid_graph(r, c))
    for side in (4, 5):
        add("exact", f"wall{side}", st.gen_wall(side)[0])
    for big_n in (3, 4, 5):
        add("exact", f"tww3-{big_n}", st.gen_tww3_family(big_n)[0])
    # seeded relabellings: twin-width must not depend on vertex names, and
    # their near-equal cost keeps the median op from hopping between
    # random instances of different cost from seed to seed
    for label, base in (("wall4", st.gen_wall(4)[0]), ("cycle16", g_.cycle_graph(16))):
        for j in range(20):
            perm = list(range(base.n))
            rng.shuffle(perm)
            add("exact", f"{label}~{j}", g_.relabel(base, perm))
    # random graphs on a fixed (n, p) grid; the seed picks only the edges
    for band in range(6):
        for n in range(10, 17):
            p = stratum(rng, 0.15, 0.5, band, 6)
            edges = random_edges(rng, n, p)
            inputs.append(("exact", f"random-n{n}-b{band}", n, edges))
    # six greedy runs of near-equal cost hold the 90th percentile
    for i, n in enumerate((40, 40, 40, 40, 40, 40, 44, 48)):
        inputs.append(("greedy", f"random-n{n}-{i}", n, random_edges(rng, n, 0.2)))

    ops = []
    for kind, label, n, edges in inputs:
        if kind == "exact":
            def run(n=n, edges=edges):
                g = g_.graph_from_edges(n, edges)
                return g, so.twinwidth_exact(g, EXACT_CAP, EXACT_BUDGET)

            def verify(raw):
                g, r = raw
                expect(r.status in ("value", "exceeds-cap", "unknown"), f"status {r.status}")
                if r.status == "value":
                    expect(0 <= r.value <= EXACT_CAP, f"value {r.value} outside 0..{EXACT_CAP}")
                    expect(sq.verify_width(g, r.sequence) == r.value, "certificate replays to another width")
                else:
                    expect(r.sequence is None and r.value is None, "a non-value answer carries a certificate")

            ops.append(Op(
                kind, label, run,
                summary=lambda raw: {"status": raw[1].status, "value": raw[1].value, "expanded": raw[1].expanded},
                verify=verify,
                counts=lambda raw: {
                    "solver.expansions": raw[1].expanded,
                    "sequences.steps_replayed": raw[0].n - 1 if raw[1].sequence else 0,
                },
            ))
        else:
            def run(n=n, edges=edges):
                g = g_.graph_from_edges(n, edges)
                return g, so.greedy_sequence(g)

            def verify(raw):
                g, (s, width) = raw
                expect(sq.verify_width(g, s) == width, "greedy certificate replays to another width")

            ops.append(Op(
                kind, label, run,
                summary=lambda raw: {"status": "ok", "width": raw[1][1]},
                verify=verify,
                counts=lambda raw: {"sequences.steps_replayed": raw[0].n - 1},
            ))
    return ops


def relabelled_agree(*keys):
    """Consistency check: an op on a relabelled copy (label "base~j")
    reports the same `keys` as the op on the original, where both report
    a value."""
    def check(ops: list[Op], summaries: list[dict]) -> list[str]:
        got = {op.label: s for op, s in zip(ops, summaries) if s is not None}
        problems = []
        for label, s in got.items():
            base = got.get(label.split("~")[0]) if "~" in label else None
            for key in keys if base is not None else ():
                if None not in (s.get(key), base.get(key)) and s[key] != base[key]:
                    problems.append(f"{label}: {key} {s[key]}, original {base[key]}")
        return problems

    return check


# -------------------------------------------------------- certify-refute


def certify_refute(tw, rng: random.Random) -> list[Op]:
    g_, tr, pl, sq = tw.graphs, tw.treewidth, tw.pipeline, tw.sequences
    bound = 2 ** (CERTIFY_K + 2) - 1
    certify: list[tuple[str, int, tuple]] = []
    # Sizes are fixed and the seed draws the shapes: the cost of min-fill
    # follows n, so the pass time stays put from seed to seed, the median
    # falls inside the block of trees near n = 120 and the 90th percentile
    # inside the block of trees with n = 500.
    for n in range(20, 52, 4):
        certify.append((f"tree{n}", n, tree_edges(rng, n)))
    for i in range(32):
        n = 120 + i % 8
        certify.append((f"tree{n}-{i}", n, tree_edges(rng, n)))
    for i in range(8):
        certify.append((f"tree500-{i}", 500, tree_edges(rng, 500)))
    for n in (800,):
        certify.append((f"tree{n}", n, tree_edges(rng, n)))
    for ears in range(2, 18, 2):
        n, edges = ear_edges(rng, ears)
        certify.append((f"ears{ears}", n, edges))
    for times in (1, 2, 3, 5, 8):
        n, edges = subdivided_k4_edges(times)
        certify.append((f"k4-sub{times}", n, edges))
    for n in range(20, 200, 26):
        certify.append((f"cycle{n}", n, cycle_edges(n)))
    # A spine of 1,200 without legs (a path) overflows the recursion in
    # decomposition_sequence.walk in every run; that op counts as a
    # failure.  With random legs, spines of 1,000-1,200 fail for some
    # seeds only, which would make the failure count a property of the
    # seed.  The spines with legs stay well below the limit, so that the
    # wrappers of the traced run cannot move an op across it either.
    for spine in (200, 300, 400, 600):
        n, edges = caterpillar_edges(rng, spine, spine // 2)
        certify.append((f"caterpillar{spine}", n, edges))
    certify.append(("caterpillar1200-bare", *caterpillar_edges(rng, 1200, 0)))

    # sparse graphs whose min-fill width misses the contraction lower
    # bound, so the gate at k = minor_min_width has to run its subset search
    gated: list[tuple[str, int, tuple, int]] = []
    for i in range(16):
        n = 18 + i % 6
        while True:
            extra = int(stratum(rng, 0.5 * n, 1.5 * n, i % 4, 4))
            edges = sparse_edges(rng, n, extra)
            g = g_.graph_from_edges(n, edges)
            k = tr.minor_min_width(g)
            if tr.min_fill_order(g)[1] > k:
                break
        gated.append((f"sparse{i}-n{n}-m{len(edges)}", n, edges, k))

    ops = []

    def certify_verify(raw):
        g, r = raw
        expect(r.status == "sequence", f"a tree-width <= {CERTIFY_K}, K22-free graph got {r.status}")
        expect(r.bound == bound and r.width <= bound, f"width {r.width} above 2^(k+2)-1 = {bound}")
        expect(sq.verify_width(g, r.sequence) == r.width, "pipeline certificate replays to another width")

    for label, n, edges in certify:
        def run(n=n, edges=edges):
            g = g_.graph_from_edges(n, edges)
            return g, pl.pipeline_certify(g, GATE_T, CERTIFY_K)

        ops.append(Op(
            "certify", label, run,
            summary=lambda raw: {"status": raw[1].status, "width": raw[1].width},
            verify=certify_verify,
            counts=lambda raw: {"sequences.steps_replayed": raw[0].n - 1 if raw[1].sequence else 0},
        ))

    def refute_verify(raw):
        g, k, r = raw
        expect(r.status in ("sequence", "tww-exceeds-2", "not-applicable", "unknown"), f"status {r.status}")
        if r.ktt is not None:
            a, b = r.ktt
            expect(len(a) == len(b) == GATE_T and not set(a) & set(b), "malformed K_t,t")
            expect(all(g.has_edge(x, y) for x in a for y in b), "reported K_t,t misses an edge")
        if r.status == "tww-exceeds-2":
            expect(r.conditional, "a desk-scale refutation must be conditional")
        if r.status == "sequence":
            expect(r.width <= 2 ** (k + 2) - 1, "width above the bound")
            expect(sq.verify_width(g, r.sequence) == r.width, "pipeline certificate replays to another width")

    def treewidth_verify(raw):
        g, r = raw
        expect(r.status in ("exact", "unknown"), f"status {r.status}")
        expect(r.lb <= r.ub, f"bounds {r.lb} > {r.ub}")
        if r.status == "exact":
            rep = tr.verify_tree_decomposition(g, r.decomposition)
            expect(rep.valid, f"invalid decomposition: {rep.violation}")
            expect(rep.width == r.width, f"decomposition has width {rep.width}, reported {r.width}")

    for label, n, edges, k in gated:
        def run(n=n, edges=edges, k=k):
            g = g_.graph_from_edges(n, edges)
            return g, k, pl.pipeline_certify(g, GATE_T, k, TW_BUDGET)

        ops.append(Op(
            "refute", label, run,
            summary=lambda raw: {"status": raw[2].status, "gate": raw[1], "width": raw[2].width,
                                 "conditional": raw[2].conditional},
            verify=refute_verify,
            counts=lambda raw: {
                "pipeline.unknown": int(raw[2].status == "unknown"),
                "sequences.steps_replayed": raw[0].n - 1 if raw[2].sequence else 0,
            },
        ))

        def run_tw(n=n, edges=edges):
            g = g_.graph_from_edges(n, edges)
            return g, tr.treewidth_exact(g, TW_BUDGET)

        ops.append(Op(
            "treewidth", label, run_tw,
            summary=lambda raw: {"status": raw[1].status, "width": raw[1].width, "lb": raw[1].lb, "ub": raw[1].ub},
            verify=treewidth_verify,
        ))
    return ops


def certify_refute_consistency(ops: list[Op], summaries: list[dict]) -> list[str]:
    """The gate and the tree-width solver must agree on each graph: the
    gate at k refutes exactly when the exact tree-width exceeds k."""
    problems = []
    gate = {}
    for op, s in zip(ops, summaries):
        if op.kind == "refute" and s is not None and s["status"] != "unknown":
            gate[op.label] = (s["gate"], s["status"] == "tww-exceeds-2")
    for op, s in zip(ops, summaries):
        if op.kind == "treewidth" and s is not None and s["status"] == "exact" and op.label in gate:
            k, refuted = gate[op.label]
            if refuted != (s["width"] > k):
                problems.append(f"{op.label}: gate k={k} refuted={refuted} but tree-width is {s['width']}")
    return problems


# ---------------------------------------------------------- verify-large


def verify_large(tw, rng: random.Random) -> list[Op]:
    g_, st, sq, io = tw.graphs, tw.structure, tw.sequences, tw.io
    # Family sizes are fixed; the seed draws the random merge orders and
    # the corrupted steps.  Most ops are small so a pass holds ~100 of
    # them; N = 8..11 (n <= 132) are cross-checked with graphs.contract.
    sizes = [*range(8, 12), *(15 + i % 11 for i in range(89)), *range(26, 41, 3), 41, 60]
    kinds = ("paper", "random", "corrupt")
    plan = [("random" if big_n < 15 else kinds[i % 3], big_n) for i, big_n in enumerate(sizes)]

    ops = []
    for kind, big_n in plan:
        n = big_n * big_n + big_n
        expected = None
        pairs = None
        if kind == "corrupt":
            pairs, expected = corrupt_pairs(rng, n, list(st.tww3_family_sequence(big_n).pairs()))
        elif kind == "random":
            pairs = random_merge_pairs(rng, n)
            if n <= CONTRACT_CROSSCHECK_MAX_N:
                expected = contract_width(tw, st.gen_tww3_family(big_n)[0], pairs)

        def run(big_n=big_n, n=n, pairs=pairs):
            g, _ = st.gen_tww3_family(big_n)
            s = st.tww3_family_sequence(big_n) if pairs is None else sq.sequence_from_pairs(n, pairs)
            g_text = io.write_dimacs(g)
            s_text = io.sequence_to_json(s)
            g2 = io.read_dimacs(g_text)
            s2 = io.sequence_from_json(s_text)
            try:
                trace = sq.width_trace(g2, s2)
            except sq.SequenceError as exc:
                trace = exc
            return g, s, g2, s2, len(g_text) + len(s_text), trace

        def verify(raw, kind=kind, expected=expected):
            g, s, g2, s2, _, trace = raw
            expect(g2 == g, "graph changed in the DIMACS round trip")
            expect(s2.pairs() == s.pairs(), "certificate changed in the JSON round trip")
            if kind == "corrupt":
                expect(isinstance(trace, sq.SequenceError), "a certificate with a dead-vertex step was accepted")
                expect(f"({min(s.pairs()[expected])},{max(s.pairs()[expected])})" in str(trace),
                       "rejection names the wrong step")
                return
            expect(isinstance(trace, list) and len(trace) == g.n - 1, "replay is not one width per step")
            width = max(trace, default=0)
            if kind == "paper":
                expect(width == 3, f"paper certificate replays to width {width}, not 3")
            elif expected is not None:
                expect(width == expected, f"replay width {width}, graphs.contract gives {expected}")
            else:
                expect(width == sq.verify_width(g, s), "replay after the io round trip disagrees")

        def summary(raw):
            trace = raw[5]
            if isinstance(trace, list):
                return {"status": "accepted", "width": max(trace, default=0)}
            return {"status": "rejected", "error": str(trace)}

        ops.append(Op(
            kind, f"tww3-{big_n}", run, summary=summary, verify=verify,
            counts=lambda raw: {
                "io.bytes_read": raw[4],
                "sequences.steps_replayed": len(raw[5]) if isinstance(raw[5], list) else 0,
            },
        ))
    return ops


def contract_width(tw, g, pairs) -> int:
    """Width of a merge order replayed with graphs.contract, the immutable
    reference, independently of the sequences module."""
    t = tw.graphs.trigraph_from_graph(g)
    width = 0
    for j, (u, v) in enumerate(pairs):
        t = tw.graphs.contract(t, u, v, new_id=g.n + j)
        width = max(width, tw.graphs.max_red_degree(t))
    return width


# ------------------------------------------------------------- lab-audit


def red_paths(red_adj: dict) -> list[tuple[int, int, int, int]]:
    """Every red path X1-X2-X3-X4 on four distinct parts, once per
    direction pair (X1 < X4)."""
    out = []
    for x2 in sorted(red_adj):
        for x3 in sorted(red_adj[x2]):
            for x1 in sorted(red_adj[x2]):
                if x1 == x3:
                    continue
                for x4 in sorted(red_adj[x3]):
                    if x4 != x2 and x1 < x4:
                        out.append((x1, x2, x3, x4))
    return out


def separates(g, a: frozenset, b: frozenset, cut: frozenset, within: frozenset) -> bool:
    """No a-b path inside `within` avoids `cut` (graph search)."""
    start = set(a - cut)
    seen = set(start)
    frontier = list(start)
    while frontier:
        x = frontier.pop()
        if x in b:
            return False
        for y in g.adj[x]:
            if y in within and y not in cut and y not in seen:
                seen.add(y)
                frontier.append(y)
    return True


def lab_audit(tw, rng: random.Random) -> list[Op]:
    g_, st, so, sq, pa, wi, tr, pl, co = (
        tw.graphs, tw.structure, tw.solver, tw.sequences, tw.partitions,
        tw.witness, tw.treewidth, tw.pipeline, tw.connectivity,
    )
    chains: list[tuple[str, int, tuple, tuple]] = []
    for big_n in range(3, 9):
        g, _ = st.gen_tww3_family(big_n)
        chains.append((f"tww3-{big_n}", g.n, tuple(sorted(g.edges)), st.tww3_family_sequence(big_n).pairs()))
    # seeded relabellings of the N = 3 chain: witness counts must not
    # depend on vertex names, and their equal cost holds the median op
    g, _ = st.gen_tww3_family(3)
    for j in range(70):
        perm = list(range(g.n))
        rng.shuffle(perm)
        pairs = sq.sequence_relabel(st.tww3_family_sequence(3), perm).pairs()
        chains.append((f"tww3-3~{j}", g.n, tuple(sorted(g_.relabel(g, perm).edges)), pairs))
    for i in range(48):
        n = 9 + i % 6
        g = g_.graph_from_edges(n, random_edges(rng, n, stratum(rng, 0.3, 0.5, i // 6, 8)))
        while (hit := st.has_ktt(g, 2)) is not None:
            (a, _), (b, _) = hit
            g = g_.graph_from_edges(n, g.edges - {(min(a, b), max(a, b))})
        r = so.twinwidth_exact(g, EXACT_CAP, EXACT_BUDGET)
        seq = r.sequence if r.sequence is not None else so.greedy_sequence(g)[0]
        chains.append((f"k22free-n{n}-{i}", n, tuple(sorted(g.edges)), seq.pairs()))

    meshes = []
    for big_n in (2, 3, 4, 5):
        for times in (0, 1, 2):
            g, wl = st.gen_wall(2 * big_n + 2)
            if times:
                g, wl = st.subdivide_wall(g, wl, times)
            me = st.wall_to_mesh(g, wl, big_n)
            td = tr.decomposition_from_order(g, tr.min_fill_order(g)[0])
            pairs = pl.decomposition_sequence(g, td).pairs()
            meshes.append((f"wall{wl.size}-sub{times}-mesh{big_n}", g.n, tuple(sorted(g.edges)), pairs, me))

    ops = []
    for label, n, edges, pairs in chains:
        def run(n=n, edges=edges, pairs=pairs):
            g = g_.graph_from_edges(n, edges)
            u = sq.invert(g, sq.sequence_from_pairs(n, pairs))
            hits, candidates, max_red = [], 0, 0
            for i in range(1, n + 1):
                p = sq.partitions_at(u, i)
                pt = pa.quotient(g, p)
                max_red = max(max_red, g_.max_red_degree(pt.quotient))
                for x1, x2, x3, x4 in red_paths(pt.quotient.red_adj):
                    for t in (1, 2):
                        candidates += 1
                        try:
                            hits.append((wi.check_witness(g, p, x1, x2, x3, x4, t, pt=pt), p))
                        except wi.WitnessViolation:
                            pass
            audits = [wi.audit_sequence(g, u, w, w.t) for w, _ in hits[:WITNESS_AUDITS]]
            return g, candidates, hits, audits, max_red

        def verify(raw):
            g, candidates, hits, audits, _ = raw
            expect(len(hits) <= candidates, "more hits than candidates")
            for w, p in hits[:: max(1, len(hits) // 8)] + hits[:WITNESS_AUDITS]:
                x1, x4 = p.members(w.x1), p.members(w.x4)
                union = x1 | p.members(w.x2) | p.members(w.x3) | x4
                cut = co.min_vertex_cut(g, x1, x4, within=union)
                expect(len(cut) == w.s, f"witness path count {w.s}, minimum separator {len(cut)}")
                expect(separates(g, x1, x4, cut, union), "minimum cut does not separate X1 from X4")
                expect(w.s + w.w2 + w.w3 >= 4 * w.t, "accepted witness violates s + w2 + w3 >= 4t")
            for a in audits:
                expect(a.verdict in ("contradiction-found", "sequence-escaped", "no-witness"), a.verdict)

        ops.append(Op(
            "enumerate", label, run,
            summary=lambda raw: {
                "status": "ok", "candidates": raw[1], "hits": len(raw[2]), "max_red": raw[4],
                "witnesses": [[w.index, *w.parts, w.t, w.s] for w, _ in raw[2]],
                "audits": [[a.verdict, a.step] for a in raw[3]],
            },
            verify=verify,
            counts=lambda raw: {"witness.candidates": raw[1], "witness.hits": len(raw[2])},
        ))

    stages = {"no heavy part", "too few rows and columns", "red degree above 2 on chain", "row escape failed",
              "both sides small: separator check", "no outside red neighbour",
              "paths miss the outside red neighbour", "outside neighbour adjacent to the heavy part"}
    for label, n, edges, pairs, me in meshes:
        for k in (1, 2):
            for t in (1, 2):
                def run(n=n, edges=edges, pairs=pairs, me=me, k=k, t=t):
                    g = g_.graph_from_edges(n, edges)
                    u = sq.invert(g, sq.sequence_from_pairs(n, pairs))
                    return g, u, wi.find_mesh_witness(g, u, me, k, t)

                def verify(raw):
                    g, u, r = raw
                    if isinstance(r, wi.MeshSearchMiss):
                        expect(r.stage in stages, f"unknown miss stage {r.stage!r}")
                        return
                    p = sq.partitions_at(u, r.m)
                    parts = (r.x1, r.x2, r.x3, r.x4)
                    expect(len(set(parts)) == 4 and all(x in p.by_id for x in parts), "witness parts not live")
                    red = pa.quotient(g, p).quotient.red
                    for a, b in zip(parts, parts[1:]):
                        expect((min(a, b), max(a, b)) in red, "mesh witness parts are not a red path")

                def summary(raw):
                    r = raw[2]
                    if isinstance(r, wi.MeshSearchMiss):
                        return {"status": "miss", "stage": r.stage, "detail": r.detail}
                    return {"status": "witness", "witness": [r.m, r.x1, r.x2, r.x3, r.x4, r.s]}

                ops.append(Op("mesh", f"{label}-k{k}-t{t}", run, summary=summary, verify=verify))
    return ops


WORKLOADS = {
    "tww-solve": (tww_solve, relabelled_agree("value")),
    "certify-refute": (certify_refute, certify_refute_consistency),
    "verify-large": (verify_large, None),
    "lab-audit": (lab_audit, relabelled_agree("candidates", "hits")),
}
