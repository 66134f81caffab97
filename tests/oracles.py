"""Independent reference implementations used only to check the package.

Kept deliberately naive and separate from the library code paths: the
twin-width brute force enumerates raw (u,v)-choice trees with no
memoization, and the naive decision recurses one frame per level on the
solver's old positional kernel, which scores every pair afresh at every
step and shifts every row, as does the positional greedy; the greedy and
twin-merge oracles rebuild an immutable
trigraph with `graphs.contract` for every pair they score; the
tree-width oracle is a top-down set-based recursion, and the naive
subset DFS walks the eliminated set afresh for every fill degree and
every fill row its almost-simplicial test reads; the
naive quotient colours each part pair by its own crossing count, and
the naive flow keeps capacities and flows apart, and the naive witness
check runs that flow before the inequality; the naive witness automaton
re-validates every state it is handed and takes a split's quotient on
trust, and the naive path layout scans the edges; the naive inversion
walks a certificate twice beside a separate live set and builds every
split's member sets, and the naive mesh
search replays the chain forward with its own part map; the naive
decomposition sequences root their bag tree in two passes or sort every
node's children, the naive bags from an elimination order union the fill rows of
every vertex, and the naive biclique search scans every common-neighbour
wedge; the naive replay
kernel keys its rows by certificate id and rewrites every red row of a
product; the naive DIMACS reader normalises each edge twice, and the naive
certificate writer and reader go through `json.dumps` and three passes; the
separator oracle enumerates vertex subsets exhaustively.
"""

import json
from collections import deque
from functools import lru_cache
from itertools import combinations, permutations

from twinwidth.connectivity import max_disjoint_paths, min_vertex_cut
from twinwidth.graphs import (
    Graph,
    Trigraph,
    adjacency_rows,
    contract,
    graph_from_edges,
    max_red_degree,
    pair,
    trigraph_from_graph,
)
from twinwidth.io import FormatError, _int, _load_json
from twinwidth.partitions import PartitionedTrigraph, VertexPartition, quotient, split_part
from twinwidth.sequences import (
    ContractionSequence,
    SequenceError,
    Split,
    UncontractionSequence,
    _check_shape,
    partitions_at,
    sequence_from_pairs,
    split_at,
    uncontraction_from_splits,
    verify_width,
)
from twinwidth.solver import DEFAULT_BUDGET, DecideResult
from twinwidth.structure import MeshEmbedding, verify_mesh
from twinwidth.treewidth import BudgetExceeded, TDReport, TreeDecomposition
from twinwidth.witness import (
    MAINTAINED,
    VIOLATED_RED_DEGREE,
    VIOLATED_STRUCTURE,
    AuditResult,
    InvariantReport,
    LayoutReport,
    MeshSearchMiss,
    MeshWitness,
    WitnessState,
    WitnessViolation,
    black_neighborhood_weight,
    check_witness,
)


# ------------------------------------------------- twin-width brute force


def bf_decide_twinwidth(g: Graph, d: int) -> bool:
    """Plain DFS over every contraction choice, pruning only on red degree."""
    n = g.n
    if n <= 1:
        return True
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    parts = [(1 << v, adj[v], adj[v]) for v in range(n)]

    def red(a, b) -> bool:
        if not (a[1] & b[0]):
            return False
        return (a[2] & b[0]) != b[0] or (b[2] & a[0]) != a[0]

    def rec(cur: list, reds: list[int]) -> bool:
        p = len(cur)
        if p == 1:
            return True
        for i in range(p):
            for j in range(i + 1, p):
                merged = (cur[i][0] | cur[j][0], cur[i][1] | cur[j][1], cur[i][2] & cur[j][2])
                nparts = []
                nreds = []
                ok = True
                mmask = 0
                pos = 0
                for x in range(p):
                    if x in (i, j):
                        continue
                    r = reds[x]
                    m2 = 0
                    for y in range(p):
                        if y in (i, j) or not (r >> y & 1):
                            continue
                        m2 |= 1 << (y - (y > i) - (y > j))
                    deg = bin(m2).count("1")
                    if red(cur[x], merged):
                        m2 |= 1 << (p - 2)
                        mmask |= 1 << pos
                        deg += 1
                    if deg > d:
                        ok = False
                        break
                    nparts.append(cur[x])
                    nreds.append(m2)
                    pos += 1
                if not ok or bin(mmask).count("1") > d:
                    continue
                nparts.append(merged)
                nreds.append(mmask)
                if rec(nparts, nreds):
                    return True
        return False

    return rec(parts, [0] * n)


def bf_twinwidth(g: Graph) -> int:
    d = 0
    while not bf_decide_twinwidth(g, d):
        d += 1
    return d


# ------------------------------------------- the positional scoring kernel
# The solver's kernel before stable slots, kept verbatim: parts are list
# positions in certificate-id order, every pair is scored from scratch at
# every step, and every row is rebuilt with its positions shifted.


def _scored(exts: list[int], adjs: list[int], reds: list[int], d: int) -> list[tuple[int, tuple[int, int], int, int, int]]:
    """(maxdeg, certificate pair, i, j, merged red row) for every merge of
    parts i < j that keeps the red degree <= d, unsorted; the tuple order is
    the search order, and the certificate pair decides every tie.  Parts are
    positions: exts holds their certificate ids, adjs and reds their
    quotient rows.  Scores from the parents' rows only; builds no child.
    The merged red row is (ai ^ aj) | ri | rj, pruned on its size first,
    and every other row's red degree moves by +1, 0 or -1."""
    p = len(reds)
    by_deg: dict[int, int] = {}
    for w, r in enumerate(reds):
        k = r.bit_count()
        by_deg[k] = by_deg.get(k, 0) | 1 << w
    classes = sorted(by_deg.items(), reverse=True)
    full = (1 << p) - 1
    out = []
    for i in range(p):
        ai, ri = adjs[i], reds[i]
        for j in range(i + 1, p):
            rj = reds[j]
            # red to the merged part: joined to exactly one of i, j, or red to
            # either; bits i and j are both set iff i and j are joined
            merged = (ai ^ adjs[j]) | ri | rj
            maxdeg = merged.bit_count() - 2 * (ai >> j & 1)
            if maxdeg > d:
                continue
            keep = full ^ (1 << i) ^ (1 << j)
            merged &= keep
            up = merged & ~(ri | rj)  # +1: newly red to the merged part
            both = ri & rj  # -1: red to both; every other row stays
            # walk the degree classes down while one can still raise maxdeg
            for k, rows in classes:
                if k < maxdeg:
                    break
                rows &= keep
                if rows & up:
                    maxdeg = k + 1
                elif rows & ~both:
                    maxdeg = k
                elif rows:
                    maxdeg = max(maxdeg, k - 1)
            if maxdeg > d:
                continue
            a, b = exts[i], exts[j]
            out.append((maxdeg, (a, b) if a < b else (b, a), i, j, merged))
    return out


def _child_rows(adjs: list[int], reds: list[int], i: int, j: int, merged_red: int) -> tuple[list[int], list[int]]:
    """The quotient rows after merging parts i < j, whose merged red row
    `_scored` gave: positions shift down past i and j, the merged part
    goes last.  Every row is rebuilt, with the shifts inlined; an empty
    red row needs none."""
    p = len(reds)
    low, mid, top = (1 << i) - 1, (1 << (j - i - 1)) - 1, 1 << (p - 2)
    i1, j1, jm = i + 1, j + 1, j - 1
    merged_adj = (adjs[i] | adjs[j]) & ~(1 << i | 1 << j)
    new_adjs, new_reds = [], []
    for w, (a, r) in enumerate(zip(adjs, reds)):
        if w != i and w != j:
            new_adjs.append((a & low) | ((a >> i1) & mid) << i | (a >> j1) << jm | (top if merged_adj >> w & 1 else 0))
            if r:
                r = (r & low) | ((r >> i1) & mid) << i | (r >> j1) << jm
            new_reds.append(r | top if merged_red >> w & 1 else r)
    new_adjs.append((merged_adj & low) | ((merged_adj >> i1) & mid) << i | (merged_adj >> j1) << jm)
    new_reds.append((merged_red & low) | ((merged_red >> i1) & mid) << i | (merged_red >> j1) << jm)
    return new_adjs, new_reds


def _first_twins(adjs: list[int]) -> tuple[int, int] | None:
    """The first twin positions i < j of rows with no red edge: false twins
    share a row, true twins a row plus their own bit (keyed apart by ~).
    Scanned by j, so i's first pair has its least j; (0, j) ends the scan."""
    first: dict[int, int] = {}
    best = None
    for j, a in enumerate(adjs):
        for key in (a, ~(a | 1 << j)):
            i = first.setdefault(key, j)
            if i < j and (best is None or i < best[0]):
                if i == 0:
                    return 0, j
                best = i, j
    return best


def positional_greedy(g: Graph, cap: int) -> ContractionSequence | None:
    """`solver._greedy` on the positional kernel, kept verbatim: greedy's
    certificate, or None once a step needs a width above `cap`.  With no
    red edge a merge leaves none iff its parts are
    twins, so the first twin pair is the best merge; positions are in
    certificate id order, since the product goes last."""
    n = g.n
    exts, adjs, reds = list(range(n)), adjacency_rows(g), [0] * n
    steps: list[tuple[int, int]] = []
    width = 0
    while len(exts) > 1:
        red = any(reds)
        if not red and (twins := _first_twins(adjs)):
            (i, j), merged_red = twins, 0
        else:
            # the smallest merge under the lowest bound admitting any, stepped
            # up from the width so far, and from 1 if no red edge or twin is left
            width = max(width, 0 if red else 1)
            while width <= cap and not (scored := _scored(exts, adjs, reds, width)):
                width += 1
            if width > cap:
                return None
            _, _, i, j, merged_red = min(scored)
        steps.append((exts[i], exts[j]))
        adjs, reds = _child_rows(adjs, reds, i, j, merged_red)
        exts = exts[:i] + exts[i + 1:j] + exts[j + 1:] + [n + len(steps) - 1]
    return sequence_from_pairs(n, steps)


def naive_decide_twinwidth_at_most(g: Graph, d: int, budget: int = DEFAULT_BUDGET) -> DecideResult:
    """`solver.decide_twinwidth_at_most` as a recursive closure, one Python
    frame per level, on the positional kernel above, kept verbatim: the
    walk on stable slots must give its statuses, expansions and
    certificates.  Does g admit a contraction sequence of
    width <= d?

    YES carries a certificate that re-verifies at width <= d; NO means the
    memoized search exhausted every width-<= d partition state; UNKNOWN is
    returned only when the expansion budget runs out.
    """
    if d < 0:
        raise ValueError("width bound must be nonnegative")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if g.n == 0:
        raise ValueError("twin-width is defined for nonempty graphs")
    n = g.n
    adj = adjacency_rows(g)
    visited: set[tuple[int, ...]] = {tuple(1 << v for v in range(n))}
    expanded = 0
    out_of_budget = False
    steps: list[tuple[int, int]] = []

    def dfs(masks: list[int], exts: list[int], adjs: list[int], reds: list[int]) -> bool:
        nonlocal expanded, out_of_budget
        if len(masks) == 1:
            return True
        expanded += 1
        if expanded > budget:
            out_of_budget = True
            return False
        next_ext = n + len(steps)
        for _, uv, i, j, merged_red in sorted(_scored(exts, adjs, reds, d)):
            new_masks = masks[:i] + masks[i + 1:j] + masks[j + 1:]
            new_masks.append(masks[i] | masks[j])
            key = tuple(sorted(new_masks))
            if key in visited:
                continue
            visited.add(key)
            new_adjs, new_reds = _child_rows(adjs, reds, i, j, merged_red)
            new_exts = exts[:i] + exts[i + 1:j] + exts[j + 1:]
            new_exts.append(next_ext)
            steps.append(uv)
            if dfs(new_masks, new_exts, new_adjs, new_reds):
                return True
            if out_of_budget:
                return False
            steps.pop()
        return False

    if dfs([1 << v for v in range(n)], list(range(n)), adj, [0] * n):
        seq = sequence_from_pairs(n, steps)
        if verify_width(g, seq) > d:
            raise AssertionError("solver produced a certificate wider than requested")
        return DecideResult("yes", seq, expanded)
    if out_of_budget:
        return DecideResult("unknown", None, expanded)
    return DecideResult("no", None, expanded)


# ---------------------------------------------- contraction heuristics


def naive_greedy_pairs(g: Graph) -> list[tuple[int, int]]:
    """Merge the live pair with the smallest (max red degree after the
    merge, pair), scored by contracting a fresh copy each time."""
    t = trigraph_from_graph(g)
    pairs = []
    while t.n > 1:
        x0 = g.n + len(pairs)
        _, u, v = min((max_red_degree(contract(t, u, v, x0)), u, v) for u, v in combinations(sorted(t.vertices), 2))
        t = contract(t, u, v, x0)
        pairs.append((u, v))
    return pairs


def naive_twin_pairs(g: Graph) -> list[tuple[int, int]] | None:
    """Merge the lexicographically first twin pair until one vertex is
    left; None when some trigraph on the way has no twins."""
    t = trigraph_from_graph(g)
    pairs = []
    while t.n > 1:
        nbrs = {x: t.black_adj[x] | t.red_adj[x] for x in t.vertices}
        twins = [(u, v) for u, v in combinations(sorted(t.vertices), 2) if nbrs[u] - {v} == nbrs[v] - {u}]
        if not twins:
            return None
        t = contract(t, *twins[0], g.n + len(pairs))
        pairs.append(twins[0])
    return pairs


# ------------------------------------------------- certificate replay


class NaiveReplayState:
    """The replay kernel with rows keyed by certificate id: every merge
    rewrites every red row of the product, and the product gets a fresh
    row.  A histogram of the live red degrees, updated by `apply` for the
    rows it changes, makes `max_red_degree` O(1).
    """

    def __init__(self, g: Graph):
        self.black: dict[int, set[int]] = {v: set(g.adj[v]) for v in range(g.n)}
        self.red: dict[int, set[int]] = {v: set() for v in range(g.n)}
        self._next = g.n  # the next product's certificate id
        self._rows_of_degree = [g.n] + [0] * g.n  # red degree -> live rows with it
        self._max_red = 0

    def apply(self, u: int, v: int) -> None:
        x0 = self._next
        if u not in self.black or v not in self.black:
            raise SequenceError(f"step merges dead or unknown vertex in ({u},{v})")
        self._next += 1
        drop = {u, v}
        n1 = (self.black[u] | self.red[u]) - drop
        n2 = (self.black[v] | self.red[v]) - drop
        reds = ((self.red[u] | self.red[v]) - drop) | (n1 ^ n2)
        blacks = (n1 | n2) - reds
        for w in (self.black.pop(u) | self.black.pop(v)) - drop:
            self.black[w] -= drop
        self.black[x0] = blacks
        for w in blacks:
            self.black[w].add(x0)
        # reds holds every red neighbour of u and v, so only these rows,
        # u, v and the product change red degree
        hist = self._rows_of_degree
        hist[len(self.red.pop(u))] -= 1
        hist[len(self.red.pop(v))] -= 1
        for w in reds:
            row = self.red[w]
            hist[len(row)] -= 1
            row -= drop
            row.add(x0)
            hist[len(row)] += 1
        self.red[x0] = reds
        hist[len(reds)] += 1
        # a row gains at most the product; walk down to the first degree held
        top = max(self._max_red + 1, len(reds))
        while top and not hist[top]:
            top -= 1
        self._max_red = top

    def max_red_degree(self) -> int:
        return self._max_red

    def snapshot(self) -> Trigraph:
        verts = frozenset(self.black)
        black = frozenset(pair(u, v) for u in self.black for v in self.black[u] if u < v)
        red = frozenset(pair(u, v) for u in self.red for v in self.red[u] if u < v)
        return Trigraph(verts, black, red)


# ------------------------------------------------ uncontraction chains


def naive_invert(g: Graph, s: ContractionSequence) -> UncontractionSequence:
    """`sequences.invert` as it was before it walked the steps once and
    kept the merge tree: `naive_splits` builds every split's member sets,
    and `uncontraction_from_splits` checks each split by the split rule.
    The partition view of a contraction sequence.

    The k-part partition groups original vertices by the live vertex they
    contracted into; part ids are the live certificate ids, and split i
    undoes the (n-i)-th contraction.
    """
    return uncontraction_from_splits(g.n, *naive_splits(g, s))


def naive_splits(g: Graph, s: ContractionSequence) -> tuple[int, tuple[Split, ...]]:
    """The root id and the explicit splits of `naive_invert`'s chain: one
    walk builds every product's member set, with a live set beside the
    member map to check liveness, and a second walk builds the splits."""
    _check_shape(g, s)
    n = g.n
    members: dict[int, frozenset[int]] = {v: frozenset((v,)) for v in range(n)}
    live = set(range(n))
    for j, (u, v) in enumerate(s.steps):
        if u not in live or v not in live:
            raise SequenceError(f"step merges dead or unknown vertex in ({u},{v})")
        members[n + j] = members[u] | members[v]
        live -= {u, v}
        live.add(n + j)
    root = n + len(s.steps) - 1 if s.steps else 0
    splits = tuple(
        Split(n + j, u, members[u], v, members[v]) for j, (u, v) in reversed(list(enumerate(s.steps)))
    )
    return root, splits


def naive_levels(n: int, root_id: int, splits) -> list[dict[int, frozenset[int]]]:
    """Every level of an explicit chain as an id -> members map, replayed
    from {root_id: V} by one dict update per split; level i is entry i-1."""
    parts = {root_id: frozenset(range(n))}
    levels = [dict(parts)]
    for sp in splits:
        del parts[sp.parent]
        parts[sp.id_a] = frozenset(sp.set_a)
        parts[sp.id_b] = frozenset(sp.set_b)
        levels.append(dict(parts))
    return levels


# ----------------------------------------------------------------- readers


def naive_read_dimacs(text: str) -> Graph:
    """Parse `p edge <n> <m>` followed by m `e <u> <v>` lines, 1-indexed."""
    n = None
    m = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(lineno, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise FormatError(lineno, f"expected 'p edge <n> <m>', got {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(lineno, "non-integer counts in problem line") from None
            if n < 0 or m < 0:
                raise FormatError(lineno, "negative counts in problem line")
        elif parts[0] == "e":
            if n is None:
                raise FormatError(lineno, "edge before problem line")
            if len(parts) != 3:
                raise FormatError(lineno, f"expected 'e <u> <v>', got {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(lineno, "non-integer endpoint") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(lineno, f"endpoint out of range 1..{n}")
            if u == v:
                raise FormatError(lineno, "loops are not allowed")
            e = (min(u, v) - 1, max(u, v) - 1)
            if e in edges:
                raise FormatError(lineno, f"duplicate edge {u} {v}")
            edges.add(e)
        else:
            raise FormatError(lineno, f"unrecognized line {line!r}")
    if n is None:
        raise FormatError(1, "missing problem line")
    if len(edges) != m:
        raise FormatError(1, f"problem line promises {m} edges, file has {len(edges)}")
    return graph_from_edges(n, edges)


def naive_sequence_to_json(s: ContractionSequence) -> str:
    """The certificate written through `json.dumps` with sorted keys."""
    payload = {"n": s.n, "steps": [{"u": u, "v": v} for u, v in s.steps]}
    return json.dumps(payload, sort_keys=True) + "\n"


def naive_sequence_from_json(text: str) -> ContractionSequence:
    """The certificate read in three passes: step shapes, then n, then
    every id through `_int`."""
    payload = _load_json(text)
    if not isinstance(payload, dict) or "n" not in payload or "steps" not in payload:
        raise FormatError(1, "certificate must be an object with 'n' and 'steps'")
    steps = payload["steps"]
    if not isinstance(steps, list) or any(not isinstance(x, dict) or "u" not in x or "v" not in x for x in steps):
        raise FormatError(1, "'steps' must be a list of {u, v} objects")
    n = _int(payload["n"], "n")
    pairs = [(_int(x["u"], "u"), _int(x["v"], "v")) for x in steps]
    try:
        return sequence_from_pairs(n, pairs)
    except SequenceError as exc:
        raise FormatError(1, str(exc)) from None


# ------------------------------------------------ tree-width heuristics


def _naive_eliminate(nbrs: dict[int, set[int]], v: int) -> None:
    around = nbrs.pop(v)
    for u in around:
        nbrs[u].discard(v)
    for u in around:
        for w in around:
            if u < w:
                nbrs[u].add(w)
                nbrs[w].add(u)


def naive_min_fill_order(g: Graph) -> tuple[list[int], int]:
    """Eliminate the live vertex with the smallest (fill, degree, id),
    scoring every live vertex afresh at every step."""
    nbrs = {v: set(g.adj[v]) for v in range(g.n)}
    order: list[int] = []
    width = 0
    while nbrs:
        best = None
        for v in sorted(nbrs):
            fill = 0
            around = nbrs[v]
            for u in around:
                fill += len(around - nbrs[u]) - 1
            key = (fill, len(around), v)
            if best is None or key < best[0]:
                best = (key, v)
        v = best[1]
        width = max(width, len(nbrs[v]))
        order.append(v)
        _naive_eliminate(nbrs, v)
    return order, width


def naive_minor_min_width(g: Graph) -> int:
    """Contract the smallest-(degree, id) vertex into its neighbour with
    the fewest common neighbours, rescanning every vertex per step."""
    nbrs = {v: set(g.adj[v]) for v in range(g.n)}
    lb = 0
    while len(nbrs) > 1:
        v = min(nbrs, key=lambda x: (len(nbrs[x]), x))
        lb = max(lb, len(nbrs[v]))
        if not nbrs[v]:
            del nbrs[v]
            continue
        w = min(nbrs[v], key=lambda x: (len(nbrs[v] & nbrs[x]), x))
        merged = (nbrs.pop(v) | nbrs.pop(w)) - {v, w}
        nbrs[w] = merged
        for u in list(nbrs):
            if u == w:
                continue
            if v in nbrs[u] or w in nbrs[u]:
                nbrs[u].discard(v)
                if u in merged:
                    nbrs[u].add(w)
                else:
                    nbrs[u].discard(w)
    return lb


def naive_decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    """Bags from an elimination order: bag i is v_i plus its fill neighbours."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must enumerate every vertex exactly once")
    if g.n == 0:
        return TreeDecomposition(((0, frozenset()),), ())
    pos = {v: i for i, v in enumerate(order)}
    nbrs = [set(row) for row in g.adj]
    bags: list[tuple[int, frozenset[int]]] = []
    edges: list[tuple[int, int]] = []
    for i, v in enumerate(order):
        rest = nbrs[v]
        bags.append((i, frozenset(rest | {v})))
        for u in rest:  # v's fill neighbours become a clique, without v
            nbrs[u] |= rest
            nbrs[u] -= {u, v}
        if rest:
            edges.append(pair(i, min(pos[u] for u in rest)))
        elif i + 1 < g.n:
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(edges))


def naive_verify_tree_decomposition(g: Graph, td: TreeDecomposition) -> TDReport:
    """The decomposition checks in the same order, each by a full scan:
    the bags holding a vertex are searched for in every bag, and their
    connectivity is walked over the whole bag tree."""
    ids = [i for i, _ in td.bags]
    if len(set(ids)) != len(ids):
        return TDReport(False, None, "duplicate bag id")
    idset = set(ids)
    for a, b in td.edges:
        if a not in idset or b not in idset:
            return TDReport(False, None, f"tree edge ({a},{b}) uses an unknown bag")
    if len(td.edges) != len(ids) - 1:
        return TDReport(False, None, f"{len(ids)} bags need {len(ids) - 1} tree edges, got {len(td.edges)}")
    nbrs: dict[int, set[int]] = {i: set() for i in ids}
    for a, b in td.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    if ids:
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for y in nbrs[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != idset:
            return TDReport(False, None, "bag tree is disconnected")
    covered: set[int] = set()
    for _, bag in td.bags:
        covered |= bag
        for v in bag:
            if not (0 <= v < g.n):
                return TDReport(False, None, f"bag vertex {v} out of range")
    if covered != set(range(g.n)):
        missing = sorted(set(range(g.n)) - covered)
        return TDReport(False, None, f"vertices {missing} are in no bag")
    for u, v in sorted(g.edges):
        if not any(u in bag and v in bag for _, bag in td.bags):
            return TDReport(False, None, f"edge ({u},{v}) is in no bag")
    for v in range(g.n):
        holding = [i for i, bag in td.bags if v in bag]
        hold = set(holding)
        seen = {holding[0]}
        stack = [holding[0]]
        while stack:
            for y in nbrs[stack.pop()]:
                if y in hold and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != hold:
            return TDReport(False, None, f"bags holding vertex {v} are not connected in the tree")
    return TDReport(True, td.width, None)


def _naive_fill_row(adj: list[int], eliminated: int, v: int) -> int:
    """Neighbours of v outside `eliminated`, reachable through it, as a bitmask."""
    vbit = 1 << v
    seen = vbit
    grow = adj[v]
    while True:
        inside = grow & eliminated & ~seen
        if not inside:
            break
        seen |= inside
        m = inside
        while m:
            b = m & -m
            grow |= adj[b.bit_length() - 1]
            m ^= b
    return grow & ~eliminated & ~vbit


def _naive_fill_degree(adj: list[int], eliminated: int, v: int) -> int:
    return _naive_fill_row(adj, eliminated, v).bit_count()


def naive_almost_simplicial(adj: list[int], eliminated: int, v: int) -> bool:
    """Some vertex lies in every missing pair among v's fill neighbours:
    each neighbour's row is a fresh walk, the missing pairs are listed,
    and every neighbour is tried as the common vertex."""
    row = _naive_fill_row(adj, eliminated, v)
    around = [u for u in range(len(adj)) if row >> u & 1]
    rows = {u: _naive_fill_row(adj, eliminated, u) for u in around}
    missing = [(a, b) for a, b in combinations(around, 2) if not rows[a] >> b & 1]
    return not missing or any(all(c in ab for ab in missing) for c in around)


def naive_search(g: Graph, k: int, budget: int | None) -> tuple[list[int] | None, int]:
    """The subset DFS of `treewidth._search`, with every live vertex's
    fill degree, and each candidate's almost-simpliciality, found by fresh
    walks through the eliminated set in every state.  Same states, same
    order, same budget cut-offs; returns the order and the number of
    states expanded."""
    n = g.n
    if n == 0:
        return [], 0
    if k >= n - 1:
        return list(range(n)), 0
    order, width = naive_min_fill_order(g)
    if width <= k:
        return order, 0
    if naive_minor_min_width(g) > k:
        return None, 0
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    visited: set[int] = set()
    expanded = 0
    suffix: list[int] = []

    def dfs(elim: int, prefix: list[int]) -> bool:
        nonlocal expanded
        remaining = n - elim.bit_count()
        if remaining <= k + 1:
            suffix.extend(prefix)
            m = full & ~elim
            while m:
                b = m & -m
                suffix.append(b.bit_length() - 1)
                m ^= b
            return True
        expanded += 1
        if budget is not None and expanded > budget:
            raise BudgetExceeded(f"tree-width search exceeded {budget} states")
        cands = []
        m = full & ~elim
        while m:
            b = m & -m
            v = b.bit_length() - 1
            fd = _naive_fill_degree(adj, elim, v)
            if fd <= k:
                cands.append((fd, v))
            m ^= b
        if len(cands) < 2:
            return False
        cands.sort()
        # an almost simplicial candidate is safe to eliminate first
        safe = [(fd, v) for fd, v in cands if naive_almost_simplicial(adj, elim, v)]
        if safe:
            cands = safe[:1]
        for fd, v in cands:
            child = elim | (1 << v)
            if child in visited:
                continue
            visited.add(child)
            prefix.append(v)
            if dfs(child, prefix):
                return True
            prefix.pop()
        return False

    if dfs(0, []):
        return suffix, expanded
    return None, expanded


def naive_search_first_candidate(g: Graph, k: int, budget: int | None) -> tuple[list[int] | None, int]:
    """`naive_search` as it was when only the first candidate, in (fill
    degree, id) order, was tested for almost-simpliciality.  Kept verbatim
    but for `_search`'s sound cut, fewer than two candidates: `_search`
    must reach its decisions in no more states."""
    n = g.n
    if n == 0:
        return [], 0
    if k >= n - 1:
        return list(range(n)), 0
    order, width = naive_min_fill_order(g)
    if width <= k:
        return order, 0
    if naive_minor_min_width(g) > k:
        return None, 0
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    visited: set[int] = set()
    expanded = 0
    suffix: list[int] = []

    def dfs(elim: int, prefix: list[int]) -> bool:
        nonlocal expanded
        remaining = n - elim.bit_count()
        if remaining <= k + 1:
            suffix.extend(prefix)
            m = full & ~elim
            while m:
                b = m & -m
                suffix.append(b.bit_length() - 1)
                m ^= b
            return True
        expanded += 1
        if budget is not None and expanded > budget:
            raise BudgetExceeded(f"tree-width search exceeded {budget} states")
        cands = []
        m = full & ~elim
        while m:
            b = m & -m
            v = b.bit_length() - 1
            fd = _naive_fill_degree(adj, elim, v)
            if fd <= k:
                cands.append((fd, v))
            m ^= b
        if len(cands) < 2:
            return False
        cands.sort()
        # an almost simplicial first candidate is safe to eliminate first
        if cands and naive_almost_simplicial(adj, elim, cands[0][1]):
            cands = cands[:1]
        for fd, v in cands:
            child = elim | (1 << v)
            if child in visited:
                continue
            visited.add(child)
            prefix.append(v)
            if dfs(child, prefix):
                return True
            prefix.pop()
        return False

    if dfs(0, []):
        return suffix, expanded
    return None, expanded


def naive_search_degree_one(g: Graph, k: int, budget: int | None) -> tuple[list[int] | None, int]:
    """`naive_search` as it was when only a fill-degree <= 1 (simplicial)
    first candidate was branched on alone.  Kept verbatim but for
    `_search`'s sound cut, fewer than two candidates: `_search` must
    return its orders and decisions, in no more states."""
    n = g.n
    if n == 0:
        return [], 0
    if k >= n - 1:
        return list(range(n)), 0
    order, width = naive_min_fill_order(g)
    if width <= k:
        return order, 0
    if naive_minor_min_width(g) > k:
        return None, 0
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    visited: set[int] = set()
    expanded = 0
    suffix: list[int] = []

    def dfs(elim: int, prefix: list[int]) -> bool:
        nonlocal expanded
        remaining = n - elim.bit_count()
        if remaining <= k + 1:
            suffix.extend(prefix)
            m = full & ~elim
            while m:
                b = m & -m
                suffix.append(b.bit_length() - 1)
                m ^= b
            return True
        expanded += 1
        if budget is not None and expanded > budget:
            raise BudgetExceeded(f"tree-width search exceeded {budget} states")
        cands = []
        m = full & ~elim
        while m:
            b = m & -m
            v = b.bit_length() - 1
            fd = _naive_fill_degree(adj, elim, v)
            if fd <= k:
                cands.append((fd, v))
            m ^= b
        if len(cands) < 2:
            return False
        cands.sort()
        # a fill-degree <= 1 vertex is simplicial; eliminating it first is safe
        if cands and cands[0][0] <= 1:
            cands = cands[:1]
        for fd, v in cands:
            child = elim | (1 << v)
            if child in visited:
                continue
            visited.add(child)
            prefix.append(v)
            if dfs(child, prefix):
                return True
            prefix.pop()
        return False

    if dfs(0, []):
        return suffix, expanded
    return None, expanded


def naive_treewidth_order(g: Graph, k: int, budget: int | None = None) -> list[int] | None:
    return naive_search(g, k, budget)[0]


# ---------------------------------------------- decomposition sequence


def naive_decomposition_sequence(g: Graph, td: TreeDecomposition) -> ContractionSequence:
    """Contraction sequence guided by a tree decomposition: the two-pass
    construction (a depth-first walk, then a second pass over the
    adjacency for parents and children) kept as the reference.

    Vertices are contracted into one accumulator in post-order of the
    rooted bag tree, heavier subtrees first; a vertex dies when the walk
    leaves the last bag containing it, so the accumulator's red neighbours
    stay confined to bags along the current root path.
    """
    if g.n == 0:
        raise ValueError("cannot build a sequence for the empty graph")
    ids = [i for i, _ in td.bags]
    bag = td.by_id
    nbrs: dict[int, list[int]] = {i: [] for i in ids}
    for a, b in td.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    root = min(ids)
    order: list[int] = []
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for y in sorted(nbrs[node]):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    parent = {root: None}
    children: dict[int, list[int]] = {i: [] for i in ids}
    for node in order:
        for y in nbrs[node]:
            if y not in parent:
                parent[y] = node
                children[node].append(y)
    weight: dict[int, int] = {}
    for node in reversed(order):
        weight[node] = 1 + sum(weight[c] for c in children[node])

    # reversed, a pre-order that takes the lightest child first is the
    # heavier-first post-order; an explicit stack keeps deep bag trees safe
    preorder: list[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        preorder.append(node)
        stack.extend(sorted(children[node], key=lambda c: (-weight[c], c)))
    pairs: list[tuple[int, int]] = []
    acc: int | None = None  # certificate id of the accumulator
    forgotten: set[int] = set()
    for node in reversed(preorder):
        above = bag[parent[node]] if node != root else frozenset()
        for v in sorted(bag[node] - above - forgotten):
            forgotten.add(v)
            if acc is None:
                acc = v
            else:
                pairs.append((acc, v))
                acc = g.n + len(pairs) - 1
    return sequence_from_pairs(g.n, pairs)


def naive_bfs_decomposition_sequence(g: Graph, td: TreeDecomposition) -> ContractionSequence:
    """Contraction sequence guided by a tree decomposition.

    Vertices are contracted into one accumulator in post-order of the
    rooted bag tree, heavier subtrees first; a vertex dies when the walk
    leaves the last bag containing it, so the accumulator's red neighbours
    stay confined to bags along the current root path.
    """
    if g.n == 0:
        raise ValueError("cannot build a sequence for the empty graph")
    ids = [i for i, _ in td.bags]
    bag = td.by_id
    nbrs: dict[int, list[int]] = {i: [] for i in ids}
    for a, b in td.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    root = min(ids)
    # one breadth-first walk; a subtree's weight does not depend on the walk
    parent: dict[int, int | None] = {root: None}
    children: dict[int, list[int]] = {i: [] for i in ids}
    order = [root]
    for node in order:
        for y in nbrs[node]:
            if y not in parent:
                parent[y] = node
                children[node].append(y)
                order.append(y)
    weight: dict[int, int] = {}
    for node in reversed(order):
        weight[node] = 1 + sum(weight[c] for c in children[node])

    # reversed, a pre-order that takes the lightest child first is the
    # heavier-first post-order; an explicit stack keeps deep bag trees safe
    preorder: list[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        preorder.append(node)
        stack.extend(sorted(children[node], key=lambda c: (-weight[c], c)))
    pairs: list[tuple[int, int]] = []
    acc: int | None = None  # certificate id of the accumulator
    forgotten: set[int] = set()
    for node in reversed(preorder):
        above = bag[parent[node]] if node != root else frozenset()
        for v in sorted(bag[node] - above - forgotten):
            forgotten.add(v)
            if acc is None:
                acc = v
            else:
                pairs.append((acc, v))
                acc = g.n + len(pairs) - 1
    return sequence_from_pairs(g.n, pairs)


# ----------------------------------------------------- tree-width oracle


def oracle_treewidth(g: Graph) -> int:
    """Top-down min-over-elimination-orders recursion on vertex sets."""
    n = g.n
    if n == 0:
        return -1
    adj = {v: frozenset(g.adj[v]) for v in range(n)}

    def back_degree(eliminated: frozenset, v: int) -> int:
        seen = {v}
        stack = [v]
        out = set()
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in seen:
                    continue
                if w in eliminated:
                    seen.add(w)
                    stack.append(w)
                else:
                    out.add(w)
        return len(out)

    @lru_cache(maxsize=None)
    def rec(eliminated: frozenset) -> int:
        if len(eliminated) == n:
            return -1
        best = None
        for v in range(n):
            if v in eliminated:
                continue
            w = max(back_degree(eliminated, v), rec(eliminated | {v}))
            if best is None or w < best:
                best = w
        return best

    return rec(frozenset())


# ------------------------------------------------- quotients and flows


def _naive_cross_color(g: Graph, a: frozenset[int], b: frozenset[int]) -> str | None:
    """None / "black" / "red" for the a x b crossing in g."""
    if len(a) > len(b):
        a, b = b, a
    count = 0
    for u in a:
        count += len(g.adj[u] & b)
    if count == 0:
        return None
    return "black" if count == len(a) * len(b) else "red"


def naive_quotient(g: Graph, p: VertexPartition) -> PartitionedTrigraph:
    """The partitioned trigraph of (g, p), colouring every part pair by
    its own crossing count."""
    if p.n != g.n:
        raise ValueError(f"partition is over {p.n} vertices, graph has {g.n}")
    black: set[tuple[int, int]] = set()
    red: set[tuple[int, int]] = set()
    items = p.parts
    for i in range(len(items)):
        pid_i, mem_i = items[i]
        for j in range(i + 1, len(items)):
            pid_j, mem_j = items[j]
            color = _naive_cross_color(g, mem_i, mem_j)
            if color == "black":
                black.add(pair(pid_i, pid_j))
            elif color == "red":
                red.add(pair(pid_i, pid_j))
    return PartitionedTrigraph(p, Trigraph(frozenset(p.ids()), frozenset(black), frozenset(red)))


def naive_split_part(
    g: Graph,
    pt: PartitionedTrigraph,
    parent: int,
    child_a: tuple[int, frozenset[int]],
    child_b: tuple[int, frozenset[int]],
) -> PartitionedTrigraph:
    """Refine one part into two, recolouring only the pairs that meet
    the children and keeping every other quotient edge."""
    p = pt.partition
    members = p.members(parent)
    ida, seta = child_a
    idb, setb = child_b
    if not seta or not setb or (seta & setb) or (seta | setb) != members:
        raise ValueError("children must split the parent part into two nonempty sets")
    for cid in (ida, idb):
        if cid != parent and cid in p.by_id:
            raise ValueError(f"child id {cid} collides with an existing part")
    new_parts = tuple(sorted(
        [(pid, mem) for pid, mem in p.parts if pid != parent] + [(ida, frozenset(seta)), (idb, frozenset(setb))]
    ))
    new_p = VertexPartition(p.n, new_parts)
    black = {e for e in pt.quotient.black if parent not in e}
    red = {e for e in pt.quotient.red if parent not in e}
    # the child-child pair is recomputed twice with the same color; sets dedupe
    for cid, cset in ((ida, frozenset(seta)), (idb, frozenset(setb))):
        for pid, mem in new_parts:
            if pid == cid:
                continue
            color = _naive_cross_color(g, cset, mem)
            e = pair(cid, pid)
            if color == "black":
                black.add(e)
            elif color == "red":
                red.add(e)
    return PartitionedTrigraph(new_p, Trigraph(frozenset(new_p.ids()), frozenset(black), frozenset(red)))


_INF = 1 << 30


class NaiveVertexFlow:
    """Flow network: source -> v_in -> v_out -> sink, vertex arcs cap 1,
    with capacities and flows in two dicts reconciled in both arc
    directions."""

    def __init__(self, g: Graph, A, B, within):
        self.g = g
        allowed = set(range(g.n)) if within is None else set(within)
        for side, name in ((A, "A"), (B, "B")):
            for v in side:
                g._check(v)
                if v not in allowed:
                    raise ValueError(f"{name} contains vertex {v} outside the allowed set")
        if not A or not B:
            raise ValueError("A and B must be nonempty")
        self.allowed = allowed
        self.A = frozenset(A)
        self.B = frozenset(B)
        # node ids: 0 = source, 1 = sink, v_in = 2+2v, v_out = 3+2v
        self.cap: dict[tuple[int, int], int] = {}
        for v in sorted(allowed):
            self._add(2 + 2 * v, 3 + 2 * v, 1)
        for u, v in sorted(g.edges):
            if u in allowed and v in allowed:
                self._add(3 + 2 * u, 2 + 2 * v, _INF)
                self._add(3 + 2 * v, 2 + 2 * u, _INF)
        for a in sorted(self.A):
            self._add(0, 2 + 2 * a, _INF)
        for b in sorted(self.B):
            self._add(3 + 2 * b, 1, _INF)
        self.out: dict[int, list[int]] = {}
        for x, y in self.cap:
            self.out.setdefault(x, []).append(y)
            self.out.setdefault(y, []).append(x)  # reverse residual arcs
        self.out = {x: sorted(set(ys)) for x, ys in self.out.items()}
        self.flow: dict[tuple[int, int], int] = {e: 0 for e in self.cap}

    def _add(self, x: int, y: int, c: int) -> None:
        self.cap[(x, y)] = self.cap.get((x, y), 0) + c

    def _residual(self, x: int, y: int) -> int:
        r = 0
        if (x, y) in self.cap:
            r += self.cap[(x, y)] - self.flow[(x, y)]
        if (y, x) in self.cap:
            r += self.flow[(y, x)]
        return r

    def _push(self, x: int, y: int, amount: int) -> None:
        if (x, y) in self.cap and self.cap[(x, y)] - self.flow[(x, y)] > 0:
            d = min(amount, self.cap[(x, y)] - self.flow[(x, y)])
            self.flow[(x, y)] += d
            amount -= d
        if amount:
            self.flow[(y, x)] -= amount

    def max_flow(self) -> int:
        total = 0
        while True:
            parent = {0: 0}
            queue = deque([0])
            while queue and 1 not in parent:
                x = queue.popleft()
                for y in self.out.get(x, []):
                    if y not in parent and self._residual(x, y) > 0:
                        parent[y] = x
                        queue.append(y)
            if 1 not in parent:
                return total
            y = 1
            while y != 0:
                x = parent[y]
                self._push(x, y, 1)
                y = x
            total += 1

    def source_side(self) -> set[int]:
        seen = {0}
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for y in self.out.get(x, []):
                if y not in seen and self._residual(x, y) > 0:
                    seen.add(y)
                    queue.append(y)
        return seen

    def paths(self) -> list[list[int]]:
        """Decompose the integral flow into vertex paths."""
        used = dict(self.flow)
        result = []
        while True:
            # trace one unit from the source along positive flow arcs
            start = None
            for y in self.out.get(0, []):
                if used.get((0, y), 0) > 0:
                    start = y
                    break
            if start is None:
                break
            used[(0, start)] -= 1
            node, path = start, []
            while node != 1:
                if node >= 2 and node % 2 == 0:
                    path.append((node - 2) // 2)
                nxt = None
                for y in self.out.get(node, []):
                    if used.get((node, y), 0) > 0:
                        nxt = y
                        break
                if nxt is None:
                    raise AssertionError("flow decomposition lost a unit")
                used[(node, nxt)] -= 1
                node = nxt
            result.append(path)
        return sorted(result)


def _naive_solve(g: Graph, A, B, within):
    net = NaiveVertexFlow(g, A, B, within)
    value = net.max_flow()
    return net, value


def naive_max_disjoint_paths(g: Graph, A, B, within=None) -> tuple[int, list[list[int]]]:
    """Maximum family of pairwise vertex-disjoint A-B paths.

    Returns (count, paths); each path is a vertex list starting in A and
    ending in B (a single vertex for members of A & B).  `within`
    restricts the search to an induced subgraph.
    """
    net, value = _naive_solve(g, A, B, within)
    paths = net.paths()
    if len(paths) != value:
        raise AssertionError("path decomposition does not match the flow value")
    seen: set[int] = set()
    for p in paths:
        if not p or p[0] not in net.A or p[-1] not in net.B:
            raise AssertionError("extracted path does not run from A to B")
        if seen & set(p):
            raise AssertionError("extracted paths share a vertex")
        seen |= set(p)
    return value, paths


def naive_min_vertex_cut(g: Graph, A, B, within=None) -> frozenset[int]:
    """A minimum vertex set meeting every A-B path (may include A or B vertices)."""
    net, value = _naive_solve(g, A, B, within)
    side = net.source_side()
    cut = frozenset(
        v for v in net.allowed if (2 + 2 * v) in side and (3 + 2 * v) not in side
    )
    if len(cut) != value:
        raise AssertionError("max-flow/min-cut mismatch")
    return cut


def naive_check_witness(
    g: Graph,
    p: VertexPartition,
    x1: int,
    x2: int,
    x3: int,
    x4: int,
    t: int,
    pt: PartitionedTrigraph | None = None,
) -> WitnessState:
    """`witness.check_witness` with the flow always run: s is the
    minimum X1-X4 separator even when the part sizes already rule the
    inequality out."""
    if pt is not None and pt.partition != p:
        raise ValueError("pt is the quotient of another partition")
    ids = (x1, x2, x3, x4)
    if len(set(ids)) != 4:
        raise WitnessViolation("parts not distinct")
    for x in ids:
        p.members(x)
    if pt is None:
        pt = quotient(g, p)
    for x in ids:
        if p.size(x) < t:
            raise WitnessViolation("part too small", f"|{x}| = {p.size(x)} < t = {t}")
    red = pt.quotient.red
    for a, b, name in ((x1, x2, "x1-x2"), (x2, x3, "x2-x3"), (x3, x4, "x3-x4")):
        if pair(a, b) not in red:
            raise WitnessViolation(f"{name} not red")
    if pair(x1, x4) in red or pair(x1, x4) in pt.quotient.black:
        raise WitnessViolation("x1-x4 adjacent")
    union = p.members(x1) | p.members(x2) | p.members(x3) | p.members(x4)
    # Menger: the most vertex-disjoint X1-X4 paths equals the smallest X1-X4 separator
    s = len(min_vertex_cut(g, p.members(x1), p.members(x4), within=union))
    w2 = black_neighborhood_weight(pt, x2)
    w3 = black_neighborhood_weight(pt, x3)
    if s + w2 + w3 < 4 * t:
        raise WitnessViolation("inequality below 4t", f"s={s}, w2={w2}, w3={w3}, 4t={4 * t}")
    return WitnessState(len(p), x1, x2, x3, x4, t, s, w2, w3)


# ------------------------------------------------ witness automaton oracles


def _naive_try(g, p_next, ids, t, pt_next):
    try:
        return check_witness(g, p_next, *ids, t, pt=pt_next), None
    except WitnessViolation as exc:
        return None, exc.condition


def naive_advance_witness(
    g: Graph,
    p_j: VertexPartition,
    w: WitnessState,
    split: Split,
    pt: PartitionedTrigraph | None = None,
    pt_next: PartitionedTrigraph | None = None,
) -> InvariantReport:
    """`witness.advance_witness` as it was before the chain and each
    witness state were checked once: it re-validates its input, and takes
    the split's quotient `pt_next` on trust.  Push a witness through one
    uncontraction split.

    MAINTAINED carries the successor (always re-validated).  When the
    constructive cases cannot produce a valid successor the report is
    VIOLATED_RED_DEGREE: under the invariant's hypotheses that only
    happens when maintenance would force a third red edge somewhere.
    VIOLATED_STRUCTURE means the input state itself was not a witness.
    A given `pt` must be the quotient of p_j (ValueError otherwise).
    """
    if pt is None:
        pt = quotient(g, p_j)
    try:
        w = check_witness(g, p_j, w.x1, w.x2, w.x3, w.x4, w.t, pt=pt)
    except WitnessViolation as exc:
        return InvariantReport(VIOLATED_STRUCTURE, f"input not a witness: {exc.condition}", None)
    if split.parent not in p_j.by_id:
        raise ValueError(f"split of part {split.parent} is inconsistent with the partition")
    if pt_next is None:
        pt_next = split_part(g, pt, split.parent, (split.id_a, split.set_a), (split.id_b, split.set_b))
    p_next = pt_next.partition
    t = w.t
    x = split.parent

    if x not in w.parts:
        state, why = _naive_try(g, p_next, w.parts, t, pt_next)
        if state is None:
            return InvariantReport(VIOLATED_RED_DEGREE, f"outside split broke the witness: {why}", None)
        if state.s != w.s:
            raise AssertionError("outside split changed the disjoint path count")
        return InvariantReport(MAINTAINED, "outside", state)

    if x in (w.x4, w.x3):
        flipped = naive_advance_witness(g, p_j, w.reversed(), split, pt=pt, pt_next=pt_next)
        succ = flipped.successor.reversed() if flipped.successor else None
        return InvariantReport(flipped.verdict, flipped.case + " (mirrored)", succ)

    children = sorted((split.id_a, split.id_b))
    if x == w.x1:
        # keep the side holding the path starts; weight may shift into Nb(X2)
        union = p_j.members(w.x1) | p_j.members(w.x2) | p_j.members(w.x3) | p_j.members(w.x4)
        _, paths = max_disjoint_paths(g, p_j.members(w.x1), p_j.members(w.x4), within=union)
        counts = {c: sum(1 for q in paths if q[0] in p_next.members(c)) for c in children}
        order = sorted(children, key=lambda c: (-counts[c], c))
        last = None
        for c in order:
            state, why = _naive_try(g, p_next, (c, w.x2, w.x3, w.x4), t, pt_next)
            if state is not None:
                z = children[0] if c == children[1] else children[1]
                if pair(z, w.x2) in pt_next.quotient.red:
                    label = "endpoint split, remainder red to x2"
                elif pair(z, w.x2) in pt_next.quotient.black:
                    label = "endpoint split, remainder black to x2"
                else:
                    label = "endpoint split, remainder detached"
                return InvariantReport(MAINTAINED, label, state)
            last = why
        return InvariantReport(VIOLATED_RED_DEGREE, f"endpoint split, no side keeps the invariant: {last}", None)

    # x == w.x2: the split part sits between x1 and x3 on the red path
    red_next = pt_next.quotient.red
    to_x3 = [c for c in children if pair(c, w.x3) in red_next]
    if len(to_x3) == 2:
        return InvariantReport(VIOLATED_RED_DEGREE, "middle split, both sides red to x3", None)
    if not to_x3:
        return InvariantReport(VIOLATED_RED_DEGREE, "middle split, no side red to x3", None)
    y = to_x3[0]
    z = children[0] if y == children[1] else children[1]
    if pair(y, w.x1) in red_next:
        ids, label = (w.x1, y, w.x3, w.x4), "middle split, bridge through one side"
    else:
        ids, label = (z, y, w.x3, w.x4), "middle split, path shifts into the split part"
    state, why = _naive_try(g, p_next, ids, t, pt_next)
    if state is None:
        return InvariantReport(VIOLATED_RED_DEGREE, f"{label} failed: {why}", None)
    return InvariantReport(MAINTAINED, label, state)


def naive_audit_sequence(g: Graph, u: UncontractionSequence, w0: WitnessState, t: int) -> AuditResult:
    """`witness.audit_sequence` as it was before each witness state was
    checked once: `naive_advance_witness` re-validates every state it is
    handed.  Run the invariant automaton from w0's chain position to
    singletons.

    CONTRADICTION_FOUND: maintenance died (under the hypotheses, a third
    red edge was forced) or a witness survived to the singleton partition.
    SEQUENCE_ESCAPED: some quotient exceeded red degree 2 on its own.
    NO_WITNESS: w0 did not validate at its position.
    """
    m = w0.index
    p = partitions_at(u, m)
    pt = quotient(g, p)
    try:
        w = check_witness(g, p, w0.x1, w0.x2, w0.x3, w0.x4, t, pt=pt)
    except WitnessViolation as exc:
        return AuditResult("no-witness", m, exc.condition)
    if max_red_degree(pt.quotient) > 2:
        return AuditResult("sequence-escaped", m, "quotient red degree above 2")
    for j in range(m, u.n):
        split = split_at(u, j - 1)
        pt_next = split_part(g, pt, split.parent, (split.id_a, split.set_a), (split.id_b, split.set_b))
        if max_red_degree(pt_next.quotient) > 2:
            return AuditResult("sequence-escaped", j + 1, "quotient red degree above 2")
        rep = naive_advance_witness(g, p, w, split, pt=pt, pt_next=pt_next)
        if rep.verdict == VIOLATED_RED_DEGREE:
            return AuditResult("contradiction-found", j + 1, rep.case)
        if rep.verdict == VIOLATED_STRUCTURE:
            raise AssertionError(f"witness invalidated mid-chain: {rep.case}")
        w = rep.successor
        p = pt_next.partition
        pt = pt_next
    return AuditResult("contradiction-found", u.n, "witness survived to the singleton partition")


def naive_check_path_layout(g: Graph, p: VertexPartition, x1: int, x2: int, x3: int, x4: int) -> LayoutReport:
    """`witness.check_path_layout` with the three adjacencies read by
    scanning g's edges.  Do all inclusion-minimal X1-X4 paths run X1, X2,
    ..., X3, X4?

    Checked on the max-flow path family: first vertex in X1, second in X2,
    penultimate in X3, last in X4.  A direct X1-X3 or X2-X4 edge is a
    structural violation (it would overload the red path's degrees).
    """
    ids = (x1, x2, x3, x4)
    if len(set(ids)) != 4:
        raise ValueError("parts must be distinct")
    mem = {x: p.members(x) for x in ids}
    for a, b, name in ((x1, x3, "x1-x3"), (x2, x4, "x2-x4"), (x1, x4, "x1-x4")):
        if any((u in mem[a] and v in mem[b]) or (u in mem[b] and v in mem[a]) for u, v in g.edges):
            return LayoutReport(False, f"{name} edge present")
    union = mem[x1] | mem[x2] | mem[x3] | mem[x4]
    _, paths = max_disjoint_paths(g, mem[x1], mem[x4], within=union)
    for q in paths:
        if len(q) < 4:
            return LayoutReport(False, "a path skips x2 or x3")
        if q[1] not in mem[x2]:
            return LayoutReport(False, "a path leaves x1 without entering x2")
        if q[-2] not in mem[x3]:
            return LayoutReport(False, "a path enters x4 without leaving x3")
    return LayoutReport(True, None)



# ------------------------------------------------ mesh-driven witness search


def naive_find_mesh_witness(
    g: Graph,
    u: UncontractionSequence,
    mesh: MeshEmbedding,
    k: int,
    t: int = 1,
) -> MeshWitness | MeshSearchMiss:
    """`witness.find_mesh_witness` as it was before it read its level from
    `partitions_at`: a forward replay of the chain with its own part and
    weight maps and a count of heavy parts.  Locate a witness from a
    heavy part of a mesh inside an uncontraction sequence.

    Walks to the least index where every part holds fewer than 4k^2
    branching vertices, takes the heaviest part Z (needs at least 2k^2),
    follows the red chain L2, L1, Z, R1, R2, builds k minimal escape
    subpaths along mesh lines through Z, and reads the witness off the
    outside red neighbour that collects their ends.  Every threshold is
    checked, not assumed; a miss names the stage that starved.
    """
    if k < 1:
        raise ValueError("k must be positive")
    ok, why = verify_mesh(g, mesh)
    if not ok:
        raise ValueError(f"invalid mesh embedding: {why}")
    bv = mesh.branching
    heavy_all = 4 * k * k
    heavy_half = 2 * k * k

    blocks = {u.root_id: frozenset(range(u.n))}
    weights = {u.root_id: len(blocks[u.root_id] & bv)}
    heavy = int(weights[u.root_id] >= heavy_all)  # parts holding at least heavy_all
    m = 1
    while heavy and m < u.n:
        sp = split_at(u, m - 1)
        del blocks[sp.parent]
        heavy -= weights.pop(sp.parent) >= heavy_all
        for cid, members in ((sp.id_a, sp.set_a), (sp.id_b, sp.set_b)):
            blocks[cid] = members
            weights[cid] = len(members & bv)
            heavy += weights[cid] >= heavy_all
        m += 1
    p = VertexPartition(u.n, tuple(sorted(blocks.items())))
    # Z is the heavier child of the split that produced this level
    if m == 1:
        z = u.root_id
    else:
        sp = split_at(u, m - 2)
        z = min((sp.id_a, sp.id_b), key=lambda pid: (-weights[pid], pid))
    if weights[z] < heavy_half:
        return MeshSearchMiss(
            "no heavy part", f"the last split's heavier side holds {weights[z]} < {heavy_half} branching vertices"
        )
    zm = p.members(z)

    rows_hit = [line for line in mesh.rows if set(line) & bv & zm]
    cols_hit = [line for line in mesh.cols if set(line) & bv & zm]
    lines = rows_hit if len(rows_hit) >= k else cols_hit
    if len(lines) < k:
        return MeshSearchMiss("too few rows and columns", f"rows={len(rows_hit)}, cols={len(cols_hit)} < k={k}")

    pt = quotient(g, p)
    reds = pt.quotient.red_adj

    if len(reds[z]) > 2:
        return MeshSearchMiss("red degree above 2 on chain", f"part {z} has red degree {len(reds[z])}")
    sides = []  # (L1, L2) then (R1, R2): the red chain on each side of Z
    for a1 in [*sorted(reds[z]), None, None][:2]:
        beyond = sorted(reds[a1] - {z}) if a1 is not None else []
        if len(beyond) > 1:
            return MeshSearchMiss("red degree above 2 on chain", f"part {a1} has red degree {len(reds[a1])}")
        sides.append((a1, beyond[0] if beyond else None))
    family = {z} | {pid for side in sides for pid in side if pid is not None}

    part_of = p.part_of
    escapes = []
    for line in lines:
        best = None
        for a, va in enumerate(line):
            if va not in zm:
                continue
            for step in (-1, 1):
                b = a + step
                while 0 <= b < len(line):
                    owner = part_of[line[b]]
                    if line[b] in zm:
                        break
                    if owner not in family:
                        span = line[min(a, b): max(a, b) + 1]
                        if step < 0:
                            span = span[::-1]
                        cand = (len(span), 0 if step < 0 else 1, min(a, b), list(span))
                        if best is None or cand[:3] < best[:3]:
                            best = cand
                        break
                    b += step
        if best is not None:
            escapes.append(best[3])
        if len(escapes) == k:
            break
    if len(escapes) < k:
        return MeshSearchMiss("row escape failed", f"only {len(escapes)} of {k} lines escape the chain parts")

    big = [a2 is not None and p.size(a1) >= t and p.size(a2) >= t for a1, a2 in sides]
    if not any(big):
        starts = {q[0] for q in escapes}
        ends = {q[-1] for q in escapes}
        cut = min_vertex_cut(g, starts, ends)
        return MeshSearchMiss(
            "both sides small: separator check",
            f"{len(escapes)} disjoint paths against a {len(cut)}-vertex separator",
        )

    candidates = []
    for (a1, a2), ok in zip(sides, big):
        if not ok:
            continue
        outer = [pid for pid in sorted(reds[a2] - {a1}) if pid not in family]
        if not outer:
            continue
        a3 = outer[0]
        count = sum(1 for q in escapes if part_of[q[-1]] == a3)
        candidates.append((count, a3, a2, a1))
    if not candidates:
        return MeshSearchMiss("no outside red neighbour", "neither chain end has a red neighbour outside it")
    candidates.sort(key=lambda c: (-c[0], c[1]))
    count, a3, a2, a1 = candidates[0]
    if count == 0:
        return MeshSearchMiss("paths miss the outside red neighbour", f"no escape ends in part {a3}")
    if pair(a3, z) in pt.quotient.red or pair(a3, z) in pt.quotient.black:
        return MeshSearchMiss("outside neighbour adjacent to the heavy part", f"parts {a3} and {z} are adjacent")
    return MeshWitness(m, a3, a2, a1, z, count)


# -------------------------------------------------------- separator oracle


def separates(g: Graph, A, B, S) -> bool:
    """True iff G - S has no A-B path (a vertex of A & B outside S is a path)."""
    A = set(A) - set(S)
    B = set(B) - set(S)
    if A & B:
        return False
    seen = set(A)
    stack = list(A)
    while stack:
        u = stack.pop()
        if u in B:
            return False
        for w in g.adj[u]:
            if w not in S and w not in seen:
                seen.add(w)
                stack.append(w)
    return True


def min_separator_exhaustive(g: Graph, A, B) -> int:
    for size in range(g.n + 1):
        for S in combinations(range(g.n), size):
            if separates(g, A, B, S):
                return size
    raise AssertionError("removing every vertex always separates")


# ----------------------------------------------------------- small checks


def naive_has_ktt(g: Graph, t: int):
    """Find a K_{t,t} subgraph: disjoint t-sets A, B with all of A x B
    present.  Returns (A, B) as sorted tuples, or None.  Exact; the
    search is exponential in t only (t=2 runs on common-neighbour wedges).
    """
    if t < 1:
        raise ValueError("t must be positive")
    if t == 2:
        for w in range(g.n):
            nbrs = sorted(g.adj[w])
            for u, v in combinations(nbrs, 2):
                common = (g.adj[u] & g.adj[v]) - {u, v}
                if len(common) >= 2:
                    b = sorted(common)[:2]
                    return ((u, v), (b[0], b[1]))
        return None
    candidates = [v for v in range(g.n) if g.degree(v) >= t]

    def extend(chosen: list[int], common: frozenset[int], start: int):
        if len(chosen) == t:
            rest = sorted(common - set(chosen))
            if len(rest) >= t:
                return tuple(chosen), tuple(rest[:t])
            return None
        for idx in range(start, len(candidates)):
            v = candidates[idx]
            nxt = common & g.adj[v] if chosen else g.adj[v]
            if len(nxt - set(chosen) - {v}) < t:
                continue
            hit = extend(chosen + [v], nxt, idx + 1)
            if hit:
                return hit
        return None

    return extend([], frozenset(), 0)


def has_induced_p4(g: Graph) -> bool:
    for quad in combinations(range(g.n), 4):
        for a, b, c, d in permutations(quad):
            need = ((a, b), (b, c), (c, d))
            bad = ((a, c), (a, d), (b, d))
            if all(g.has_edge(u, v) for u, v in need) and not any(g.has_edge(u, v) for u, v in bad):
                return True
    return False


def bf_has_k22(g: Graph) -> bool:
    for a in combinations(range(g.n), 2):
        for b in combinations(sorted(set(range(g.n)) - set(a)), 2):
            if all(g.has_edge(u, v) for u in a for v in b):
                return True
    return False
