"""Invariant machinery over partitioned trigraphs.

A witness state is a red path X1-X2-X3-X4 of parts, each of size at least
t, with X1 and X4 non-adjacent, whose surrounding structure satisfies

    s + ||Nb(X2)|| + ||Nb(X3)|| >= 4t,

where s is the maximum number of vertex-disjoint X1-X4 paths inside the
union of the four parts and ||Nb(X)|| is the total size of the parts
black-adjacent to X.  advance_witness pushes a witness through one
uncontraction split by the constructive case analysis; audit_sequence
iterates it down to singletons.  The case analysis is only guaranteed to
succeed on K_{t,t}-free graphs inside width-2 sequences; outside that
regime it reports where it died.
"""

from dataclasses import dataclass

from .connectivity import max_disjoint_paths, min_vertex_cut
from .graphs import Graph, max_red_degree, pair
from .partitions import PartitionedTrigraph, VertexPartition, quotient, split_part
from .sequences import Split, UncontractionSequence, partitions_at
from .structure import MeshEmbedding, verify_mesh

MAINTAINED = "maintained"
VIOLATED_RED_DEGREE = "violated-red-degree"
VIOLATED_STRUCTURE = "violated-structure"


class WitnessViolation(ValueError):
    """A named witness condition failed."""

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        super().__init__(condition if not detail else f"{condition}: {detail}")


@dataclass(frozen=True)
class WitnessState:
    index: int  # chain position = number of parts in the partition
    x1: int
    x2: int
    x3: int
    x4: int
    t: int
    s: int
    w2: int
    w3: int

    def reversed(self) -> "WitnessState":
        return WitnessState(self.index, self.x4, self.x3, self.x2, self.x1, self.t, self.s, self.w3, self.w2)

    @property
    def parts(self) -> tuple[int, int, int, int]:
        return (self.x1, self.x2, self.x3, self.x4)


@dataclass(frozen=True)
class InvariantReport:
    verdict: str  # MAINTAINED | VIOLATED_RED_DEGREE | VIOLATED_STRUCTURE
    case: str
    successor: WitnessState | None


def black_neighborhood_weight(pt: PartitionedTrigraph, x: int) -> int:
    """Total number of original vertices in parts black-adjacent to x."""
    p = pt.partition
    p.members(x)
    return sum(p.size(y) for y in pt.quotient.black_adj[x])


def black_edge_violations(pt: PartitionedTrigraph, t: int) -> list[tuple[int, int]]:
    """Black quotient edges joining two parts of size >= t.

    On a K_{t,t}-free graph there are none: a black edge between big parts
    is a complete crossing, i.e. a K_{t,t} subgraph.  Each violation names
    the offending part pair.
    """
    p = pt.partition
    return sorted(e for e in pt.quotient.black if p.size(e[0]) >= t and p.size(e[1]) >= t)


def check_witness(
    g: Graph,
    p: VertexPartition,
    x1: int,
    x2: int,
    x3: int,
    x4: int,
    t: int,
    pt: PartitionedTrigraph | None = None,
) -> WitnessState:
    """Validate a witness state, or raise WitnessViolation naming the
    condition that failed.  A given `pt` must be the quotient of p."""
    if pt is not None and pt.partition != p:
        raise ValueError("pt is the quotient of another partition")
    ids = (x1, x2, x3, x4)
    if len(set(ids)) != 4:
        raise WitnessViolation("parts not distinct")
    m1, m2, m3, m4 = members = [p.members(x) for x in ids]
    if pt is None:
        pt = quotient(g, p)
    for x, mx in zip(ids, members):
        if len(mx) < t:
            raise WitnessViolation("part too small", f"|{x}| = {len(mx)} < t = {t}")
    red = pt.quotient.red
    for a, b, name in ((x1, x2, "x1-x2"), (x2, x3, "x2-x3"), (x3, x4, "x3-x4")):
        if pair(a, b) not in red:
            raise WitnessViolation(f"{name} not red")
    if pair(x1, x4) in red or pair(x1, x4) in pt.quotient.black:
        raise WitnessViolation("x1-x4 adjacent")
    w2 = black_neighborhood_weight(pt, x2)
    w3 = black_neighborhood_weight(pt, x3)
    # X1 and X4 are disjoint and unjoined, so every X1-X4 path starts in
    # X1, ends in X4 and enters X4 from X2 | X3: that bounds s without a flow
    bound = min(len(m1), len(m4), len(m2) + len(m3))
    if bound + w2 + w3 < 4 * t:
        raise WitnessViolation("inequality below 4t", f"s<={bound}, w2={w2}, w3={w3}, 4t={4 * t}")
    # Menger: the most vertex-disjoint X1-X4 paths equals the smallest X1-X4 separator
    s = len(min_vertex_cut(g, m1, m4, within=m1 | m2 | m3 | m4))
    if s + w2 + w3 < 4 * t:
        raise WitnessViolation("inequality below 4t", f"s={s}, w2={w2}, w3={w3}, 4t={4 * t}")
    return WitnessState(len(p), x1, x2, x3, x4, t, s, w2, w3)


def _try(g, p_next, ids, t, pt_next):
    try:
        return check_witness(g, p_next, *ids, t, pt=pt_next), None
    except WitnessViolation as exc:
        return None, exc.condition


def advance_witness(g: Graph, p_j: VertexPartition, w: WitnessState, split: Split) -> InvariantReport:
    """Push a witness through one uncontraction split.

    MAINTAINED carries the successor (validated when it is made).  When
    the constructive cases cannot produce a valid successor the report is
    VIOLATED_RED_DEGREE: under the invariant's hypotheses that only
    happens when maintenance would force a third red edge somewhere.
    VIOLATED_STRUCTURE means the input state itself was not a witness.
    The split must obey the split rule of `partitions.refine_part`
    (ValueError otherwise).
    """
    pt = quotient(g, p_j)
    try:
        w = check_witness(g, p_j, w.x1, w.x2, w.x3, w.x4, w.t, pt=pt)
    except WitnessViolation as exc:
        return InvariantReport(VIOLATED_STRUCTURE, f"input not a witness: {exc.condition}", None)
    pt_next = split_part(g, pt, split.parent, (split.id_a, split.set_a), (split.id_b, split.set_b))
    return _advance(g, p_j, w, (split.parent, split.id_a, split.id_b), pt_next)


def _advance(g: Graph, p_j: VertexPartition, w: WitnessState, split: tuple[int, int, int], pt_next) -> InvariantReport:
    """The case analysis of `advance_witness`, for a validated state w on
    p_j, the split's ids (parent, id_a, id_b) and the quotient pt_next."""
    p_next = pt_next.partition
    t = w.t
    x, id_a, id_b = split

    if x not in w.parts:
        state, why = _try(g, p_next, w.parts, t, pt_next)
        if state is None:
            return InvariantReport(VIOLATED_RED_DEGREE, f"outside split broke the witness: {why}", None)
        if state.s != w.s:
            raise AssertionError("outside split changed the disjoint path count")
        return InvariantReport(MAINTAINED, "outside", state)

    if x in (w.x4, w.x3):
        flipped = _advance(g, p_j, w.reversed(), split, pt_next)
        succ = flipped.successor.reversed() if flipped.successor else None
        return InvariantReport(flipped.verdict, flipped.case + " (mirrored)", succ)

    children = sorted((id_a, id_b))
    if x == w.x1:
        # keep the side holding the path starts; weight may shift into Nb(X2)
        union = p_j.members(w.x1) | p_j.members(w.x2) | p_j.members(w.x3) | p_j.members(w.x4)
        _, paths = max_disjoint_paths(g, p_j.members(w.x1), p_j.members(w.x4), within=union)
        counts = {c: sum(1 for q in paths if q[0] in p_next.members(c)) for c in children}
        order = sorted(children, key=lambda c: (-counts[c], c))
        last = None
        for c in order:
            state, why = _try(g, p_next, (c, w.x2, w.x3, w.x4), t, pt_next)
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
    state, why = _try(g, p_next, ids, t, pt_next)
    if state is None:
        return InvariantReport(VIOLATED_RED_DEGREE, f"{label} failed: {why}", None)
    return InvariantReport(MAINTAINED, label, state)


@dataclass(frozen=True)
class AuditResult:
    verdict: str  # "contradiction-found" | "sequence-escaped" | "no-witness"
    step: int  # partition chain index where the verdict fired
    reason: str


def audit_sequence(g: Graph, u: UncontractionSequence, w0: WitnessState, t: int) -> AuditResult:
    """Run the invariant automaton from w0's chain position to singletons.

    CONTRADICTION_FOUND: maintenance died (under the hypotheses, a third
    red edge was forced) or a witness survived to the singleton partition.
    SEQUENCE_ESCAPED: some quotient exceeded red degree 2 on its own.
    NO_WITNESS: w0 did not validate at its position.
    """
    m = w0.index
    pt = quotient(g, partitions_at(u, m))
    try:
        w = check_witness(g, pt.partition, w0.x1, w0.x2, w0.x3, w0.x4, t, pt=pt)
    except WitnessViolation as exc:
        return AuditResult("no-witness", m, exc.condition)
    if max_red_degree(pt.quotient) > 2:
        return AuditResult("sequence-escaped", m, "quotient red degree above 2")
    for j in range(m, u.n):
        pt_next = quotient(g, partitions_at(u, j + 1))
        if max_red_degree(pt_next.quotient) > 2:
            return AuditResult("sequence-escaped", j + 1, "quotient red degree above 2")
        x = 2 * u.n - 1 - j  # split j - 1 undoes the merge that made node x
        rep = _advance(g, pt.partition, w, tuple(u.part_ids[y] for y in (x, *u.merges[x - u.n])), pt_next)
        if rep.verdict == VIOLATED_RED_DEGREE:
            return AuditResult("contradiction-found", j + 1, rep.case)
        w = rep.successor
        pt = pt_next
    return AuditResult("contradiction-found", u.n, "witness survived to the singleton partition")


@dataclass(frozen=True)
class LayoutReport:
    ok: bool
    reason: str | None


def check_path_layout(g: Graph, p: VertexPartition, x1: int, x2: int, x3: int, x4: int) -> LayoutReport:
    """Do all inclusion-minimal X1-X4 paths run X1, X2, ..., X3, X4?

    Checked on the max-flow path family: first vertex in X1, second in X2,
    penultimate in X3, last in X4.  A direct X1-X3 or X2-X4 edge is a
    structural violation (it would overload the red path's degrees).
    """
    ids = (x1, x2, x3, x4)
    if len(set(ids)) != 4:
        raise ValueError("parts must be distinct")
    mem = {x: p.members(x) for x in ids}
    q = quotient(g, p).quotient
    for a, b, name in ((x1, x3, "x1-x3"), (x2, x4, "x2-x4"), (x1, x4, "x1-x4")):
        if pair(a, b) in q.red or pair(a, b) in q.black:
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


@dataclass(frozen=True)
class MeshWitness:
    m: int
    x1: int
    x2: int
    x3: int
    x4: int
    s: int


@dataclass(frozen=True)
class MeshSearchMiss:
    stage: str
    detail: str = ""


def find_mesh_witness(
    g: Graph,
    u: UncontractionSequence,
    mesh: MeshEmbedding,
    k: int,
    t: int = 1,
) -> MeshWitness | MeshSearchMiss:
    """Locate a witness from a heavy part of a mesh inside an uncontraction
    sequence.

    Takes the least index m where every part holds fewer than 4k^2
    branching vertices: the level right after the last split whose halves
    together hold at least 4k^2, with Z that split's heavier half (m = 1
    and Z = V when V itself is lighter).  Z needs at least 2k^2.  Then it
    follows the red chain L2, L1, Z, R1, R2, builds k minimal escape
    subpaths along mesh lines through Z, and reads the witness off the
    outside red neighbour that collects their ends.  Every threshold is
    checked, not assumed; a miss names the stage that starved.
    """
    if u.n != g.n:
        raise ValueError(f"chain is over {u.n} vertices, graph has {g.n}")
    if k < 1:
        raise ValueError("k must be positive")
    ok, why = verify_mesh(g, mesh)
    if not ok:
        raise ValueError(f"invalid mesh embedding: {why}")
    bv = mesh.branching
    heavy_all = 4 * k * k
    heavy_half = 2 * k * k

    # a part's weight is the sum of its halves', so heavy parts are closed
    # upwards: the sought level follows the last split of a heavy part,
    # which undoes the first merge whose product is heavy
    n, ids = u.n, u.part_ids
    m, z, weight = 1, u.root_id, len(bv)
    weights = [1 if v in bv else 0 for v in range(n)]
    for x, (a, b) in enumerate(u.merges, n):
        wa, wb = weights[a], weights[b]
        if wa + wb >= heavy_all:
            m = 2 * n - x
            weight, z = min((wa, ids[a]), (wb, ids[b]), key=lambda c: (-c[0], c[1]))
            break
        weights.append(wa + wb)
    if weight < heavy_half:
        return MeshSearchMiss(
            "no heavy part", f"the last split's heavier side holds {weight} < {heavy_half} branching vertices"
        )
    p = partitions_at(u, m)
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
