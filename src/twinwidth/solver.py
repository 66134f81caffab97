"""Exact twin-width decision at desk scale, plus heuristic sequences.

The search walks partition states of the original graph depth-first,
merging two parts per step.  A state's quotient colors depend only on the
partition, never on the merge order, so visited canonical keys can be
memoized: a state that failed once can be skipped forever.  Branches are
ordered by the child's maximum red degree, then by the lexicographically
smallest certificate pair, which makes YES certificates and UNKNOWN
outcomes deterministic.

Parts are bitmasks over original vertices carrying two derived masks: the
union and the intersection of member adjacencies.  Parts P, Q are joined
iff union(P) meets Q, and the join is black iff the crossing is complete,
i.e. Q is inside intersection(P) and P inside intersection(Q).
"""

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph
from .sequences import ContractionSequence, ContractionStep, ReplayState, sequence_from_pairs, verify_width

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class DecideResult:
    status: str  # "yes" | "no" | "unknown"
    sequence: ContractionSequence | None
    expanded: int


@dataclass(frozen=True)
class ExactResult:
    status: str  # "value" | "exceeds-cap" | "unknown"
    value: int | None
    sequence: ContractionSequence | None
    expanded: int


class _Part:
    __slots__ = ("mask", "union", "inter", "ext")

    def __init__(self, mask: int, union: int, inter: int, ext: int):
        self.mask = mask
        self.union = union
        self.inter = inter
        self.ext = ext


def _red(a: _Part, b: _Part) -> bool:
    """True iff disjoint parts a, b get a red quotient edge."""
    if not (a.union & b.mask):
        return False
    return (a.inter & b.mask) != b.mask or (b.inter & a.mask) != a.mask


def decide_twinwidth_at_most(g: Graph, d: int, budget: int = DEFAULT_BUDGET) -> DecideResult:
    """Does g admit a contraction sequence of width <= d?

    YES carries a certificate that re-verifies at width <= d; NO means the
    memoized search exhausted every width-<= d partition state; UNKNOWN is
    returned only when the expansion budget runs out.
    """
    if d < 0:
        raise ValueError("width bound must be nonnegative")
    n = g.n
    if n == 0:
        raise ValueError("twin-width is defined for nonempty graphs")
    if n == 1:
        return DecideResult("yes", sequence_from_pairs(1, []), 0)
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    parts = [_Part(1 << v, adj[v], adj[v], v) for v in range(n)]
    visited: set[tuple[int, ...]] = {tuple(sorted(p.mask for p in parts))}
    expanded = 0
    out_of_budget = False
    steps: list[tuple[int, int]] = []

    def children(cur: list[_Part], reds: list[int], next_ext: int):
        p = len(cur)
        degs = [r.bit_count() for r in reds]
        top = 1 << (p - 2)
        out = []
        for i in range(p):
            low_i = (1 << i) - 1
            for j in range(i + 1, p):
                a, b = cur[i], cur[j]
                merged = _Part(a.mask | b.mask, a.union | b.union, a.inter & b.inter, next_ext)
                mid_w = j - i - 1
                new_reds = []
                merged_mask = 0
                maxdeg = 0
                ok = True
                newpos = 0
                for oldpos in range(p):
                    if oldpos == i or oldpos == j:
                        continue
                    r = reds[oldpos]
                    m2 = (r & low_i) | ((r >> (i + 1)) & ((1 << mid_w) - 1)) << i | (r >> (j + 1)) << (j - 1)
                    deg = degs[oldpos] - ((r >> i) & 1) - ((r >> j) & 1)
                    if _red(cur[oldpos], merged):
                        m2 |= top
                        merged_mask |= 1 << newpos
                        deg += 1
                    if deg > d:
                        ok = False
                        break
                    new_reds.append(m2)
                    if deg > maxdeg:
                        maxdeg = deg
                    newpos += 1
                if not ok:
                    continue
                mdeg = merged_mask.bit_count()
                if mdeg > d:
                    continue
                new_reds.append(merged_mask)
                if mdeg > maxdeg:
                    maxdeg = mdeg
                uv = (a.ext, b.ext) if a.ext < b.ext else (b.ext, a.ext)
                new_parts = cur[:i] + cur[i + 1:j] + cur[j + 1:] + [merged]
                out.append((maxdeg, uv, new_parts, new_reds))
        out.sort(key=lambda c: (c[0], c[1]))
        return out

    def dfs(cur: list[_Part], reds: list[int]) -> bool:
        nonlocal expanded, out_of_budget
        if len(cur) == 1:
            return True
        expanded += 1
        if expanded > budget:
            out_of_budget = True
            return False
        for _, uv, new_parts, new_reds in children(cur, reds, n + len(steps)):
            key = tuple(sorted(p.mask for p in new_parts))
            if key in visited:
                continue
            visited.add(key)
            steps.append(uv)
            if dfs(new_parts, new_reds):
                return True
            if out_of_budget:
                return False
            steps.pop()
        return False

    if dfs(parts, [0] * n):
        seq = sequence_from_pairs(n, steps)
        if verify_width(g, seq) > d:
            raise AssertionError("solver produced a certificate wider than requested")
        return DecideResult("yes", seq, expanded)
    if out_of_budget:
        return DecideResult("unknown", None, expanded)
    return DecideResult("no", None, expanded)


def twinwidth_exact(g: Graph, d_cap: int, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Smallest d <= d_cap admitting a d-contraction sequence.

    "exceeds-cap" reports an exhaustive NO for every d up to the cap.
    """
    if d_cap < 0:
        raise ValueError("cap must be nonnegative")
    total = 0
    for d in range(d_cap + 1):
        r = decide_twinwidth_at_most(g, d, budget)
        total += r.expanded
        if r.status == "yes":
            return ExactResult("value", d, r.sequence, total)
        if r.status == "unknown":
            return ExactResult("unknown", None, None, total)
    return ExactResult("exceeds-cap", None, None, total)


def _contract_greedily(g: Graph, pick) -> ContractionSequence | None:
    """Merge pick(state, pairs) until one vertex is left, on the replay
    kernel; pairs are the live pairs in lexicographic order.  None when
    pick finds no pair.
    """
    if g.n == 0:
        raise ValueError("twin-width is defined for nonempty graphs")
    state = ReplayState(g)
    steps: list[ContractionStep] = []
    while len(state.black) > 1:
        hit = pick(state, combinations(sorted(state.black), 2))
        if hit is None:
            return None
        steps.append(ContractionStep(hit[0], hit[1], g.n + len(steps)))
        state.apply(steps[-1])
    return ContractionSequence(g.n, tuple(steps))


def twinwidth_zero(g: Graph) -> ContractionSequence | None:
    """Width-0 fast path: repeatedly contract the lexicographically first
    twin pair.  Succeeds exactly on cographs; the certificate merges only
    twins, so it verifies at width 0.
    """
    # in a trigraph with no red edge, u, v are twins iff their product has no red edge
    seq = _contract_greedily(g, lambda st, pairs: next((uv for uv in pairs if not st.product(*uv)[0]), None))
    if seq is not None and verify_width(g, seq) != 0:
        raise AssertionError("twin contraction produced a red edge")
    return seq


def greedy_sequence(g: Graph) -> tuple[ContractionSequence, int]:
    """At each step contract the pair minimizing the resulting maximum red
    degree, ties broken by the smallest certificate id pair.  Returns the
    certificate and its replay-verified width.
    """
    seq = _contract_greedily(g, lambda st, pairs: min(pairs, key=lambda uv: (st.merge_cost(*uv), uv)))
    return seq, verify_width(g, seq)
