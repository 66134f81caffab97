"""Exact twin-width decision at desk scale, plus heuristic sequences.

The search walks partition states of the original graph depth-first on
`search.walk`'s explicit stack, merging two parts per step.  A state's
quotient colors depend only on the partition, never on the merge order,
so visited canonical keys can be memoized: a state that failed once can
be skipped forever.  Branches are ordered by the child's maximum red
degree, then by the lexicographically smallest certificate pair, which
makes YES certificates and UNKNOWN outcomes deterministic.

A state is a list of parts, each a bitmask over original vertices, with
two quotient rows per part, bitmasks over part positions: `adjs` (parts
joined by any edge) and `reds` (red joins).  A merge of parts i, j is
scored from these rows alone: the merged part is black to w iff both are,
unjoined iff neither is joined, else red, and since red rows lie inside
adjacency rows its red row is (ai ^ aj) | ri | rj, three operations.
A row red to i or j stays red to the merged part, so every other row's
red degree moves by +1, 0 or -1, and the largest of them is read off
the degree classes.  Merges over the width bound are pruned, the rest
sorted, and a child's parts and rows are built only when the walk asks
for it and its partition is not yet visited.

Both heuristics are one loop on the same rows: greedy is the search's
first branch at unbounded width, stepping the bound up from the width so
far, and the width-0 path is greedy capped at 0.  With no red edge the
best merge is the first twin pair, found without scoring.  `sequences`
replays every certificate and shares no code with this module.
"""

from dataclasses import dataclass

from .graphs import Graph, adjacency_rows
from .search import walk
from .sequences import ContractionSequence, sequence_from_pairs, verify_width

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


def _singleton_rows(g: Graph) -> list[int]:
    """The quotient rows of the singleton partition of a nonempty graph."""
    if g.n == 0:
        raise ValueError("twin-width is defined for nonempty graphs")
    return adjacency_rows(g)


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


def decide_twinwidth_at_most(g: Graph, d: int, budget: int = DEFAULT_BUDGET) -> DecideResult:
    """Does g admit a contraction sequence of width <= d?

    YES carries a certificate that re-verifies at width <= d; NO means the
    memoized search exhausted every width-<= d partition state; UNKNOWN is
    returned only when the expansion budget runs out.
    """
    if d < 0:
        raise ValueError("width bound must be nonnegative")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    n = g.n
    visited: set[tuple[int, ...]] = set()

    def children(state):
        masks, exts, adjs, reds = state
        next_ext = 2 * n - len(masks)
        for _, uv, i, j, merged_red in sorted(_scored(exts, adjs, reds, d)):
            new_masks = masks[:i] + masks[i + 1:j] + masks[j + 1:]
            new_masks.append(masks[i] | masks[j])
            key = tuple(sorted(new_masks))
            if key not in visited:
                visited.add(key)
                new_exts = exts[:i] + exts[i + 1:j] + exts[j + 1:]
                new_exts.append(next_ext)
                yield uv, (new_masks, new_exts, *_child_rows(adjs, reds, i, j, merged_red))

    root = ([1 << v for v in range(n)], list(range(n)), _singleton_rows(g), [0] * n)
    steps, expanded = walk(root, n - 1, children, budget)
    if steps is not None:
        seq = sequence_from_pairs(n, steps)
        if verify_width(g, seq) > d:
            raise AssertionError("solver produced a certificate wider than requested")
        return DecideResult("yes", seq, expanded)
    return DecideResult("unknown" if expanded > budget else "no", None, expanded)


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


def _greedy(g: Graph, cap: int) -> ContractionSequence | None:
    """`greedy_sequence`'s certificate, or None once a step needs a width
    above `cap`.  With no red edge a merge leaves none iff its parts are
    twins, so the first twin pair is the best merge; positions are in
    certificate id order, since the product goes last."""
    n = g.n
    exts, adjs, reds = list(range(n)), _singleton_rows(g), [0] * n
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


def twinwidth_zero(g: Graph) -> ContractionSequence | None:
    """Width-0 fast path: greedy capped at width 0, which merges the first
    twin pair until none is left.  Succeeds exactly on cographs, with a
    certificate that merges only twins and so verifies at width 0."""
    seq = _greedy(g, 0)
    if seq is not None and verify_width(g, seq) != 0:
        raise AssertionError("twin contraction produced a red edge")
    return seq


def greedy_sequence(g: Graph) -> tuple[ContractionSequence, int]:
    """The search's first branch at unbounded width: at each step contract
    the pair minimizing the resulting maximum red degree, ties broken by the
    smallest certificate id pair.  Returns it and its replay-verified width."""
    seq = _greedy(g, g.n)
    return seq, verify_width(g, seq)
