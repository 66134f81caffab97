"""Certify-or-refute pipeline: bounded tree-width yields a verified
contraction sequence; unbounded tree-width refutes width 2 under the
sparsity hypotheses.

The sequence construction roots the tree decomposition, walks it
post-order with heavier subtrees first, and contracts every vertex into a
single accumulator the moment it disappears from the bags above it; the
surviving root bag is folded in last.  Every stage is near-linear on
trees, hubs included.  The width bound 2^(k+2)-1 is enforced on the
replayed certificate, never assumed.
"""

from dataclasses import dataclass

from .graphs import Graph
from .sequences import ContractionSequence, sequence_from_pairs, verify_width
from .structure import has_ktt
from .treewidth import BudgetExceeded, TreeDecomposition, decomposition_from_order, treewidth_order


class WidthBoundMissed(AssertionError):
    """The guided construction exceeded the certified width bound."""

    def __init__(self, achieved: int, bound: int):
        self.achieved = achieved
        self.bound = bound
        super().__init__(f"achieved width {achieved} exceeds the bound {bound}")


def regime_floor(t: int) -> int:
    """A conservative lower bound on the gate needed for an unconditional
    refutation: the mesh side 16*(13t)^2 alone.  Any desk-scale gate sits
    far below it, so desk refutations always carry the conditional flag.
    """
    return 16 * (13 * t) ** 2


@dataclass(frozen=True)
class PipelineResult:
    status: str  # "sequence" | "tww-exceeds-2" | "not-applicable" | "unknown"
    gate: int
    sequence: ContractionSequence | None = None
    width: int | None = None
    bound: int | None = None
    conditional: bool = False
    ktt: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def decomposition_sequence(g: Graph, td: TreeDecomposition) -> ContractionSequence:
    """Contraction sequence guided by a tree decomposition.

    Vertices are contracted into one accumulator in post-order of the
    rooted bag tree, heavier subtrees first; a vertex dies when the walk
    leaves the last bag containing it, so the accumulator's red neighbours
    stay confined to bags along the current root path.
    """
    if g.n == 0:
        raise ValueError("cannot build a sequence for the empty graph")
    bag = td.by_id
    nbrs: dict[int, list[int]] = {i: [] for i, _ in td.bags}
    for a, b in td.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    root = min(nbrs)
    # one breadth-first walk; a subtree's weight does not depend on the walk
    parent: dict[int, int] = {root: root}
    children: dict[int, list[int]] = {}
    order = [root]
    for node in order:
        kids = children[node] = []
        for y in nbrs[node]:
            if y not in parent:
                parent[y] = node
                kids.append(y)
        order += kids
    weight = dict.fromkeys(order, 1)
    for node in order[:0:-1]:  # every node but the root, leaves first
        weight[parent[node]] += weight[node]

    # reversed, a pre-order that takes the lightest child first is the
    # heavier-first post-order; an explicit stack keeps deep bag trees safe
    preorder: list[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        preorder.append(node)
        kids = children[node]
        stack += sorted(kids, key=lambda c: (-weight[c], c)) if len(kids) > 1 else kids
    pairs: list[tuple[int, int]] = []
    acc: int | None = None  # certificate id of the accumulator
    forgotten: set[int] = set()
    for node in reversed(preorder):
        # a valid decomposition forgets each vertex at one node only
        new = bag[node] - bag[parent[node]] if node != root else bag[node]
        if not forgotten.isdisjoint(new):
            new = new - forgotten
        forgotten |= new
        for v in sorted(new):
            if acc is None:
                acc = v
            else:
                pairs.append((acc, v))
                acc = g.n + len(pairs) - 1
    return sequence_from_pairs(g.n, pairs)


def pipeline_certify(g: Graph, t: int, k: int, budget: int | None = None) -> PipelineResult:
    """Certify a contraction sequence of width at most 2^(k+2)-1, or refute
    width 2 when the tree-width gate k fails.

    The refutation is only certified in the sparse regime: the graph must
    be K_{t,t}-free and the gate must reach the regime floor; otherwise
    the verdict carries conditional=True.  Graphs inside the gate that do
    contain K_{t,t} fall outside the sparse class entirely and are
    reported NOT_APPLICABLE.
    """
    if t < 1 or k < 1:
        raise ValueError("t and k must be positive")
    bound = 2 ** (k + 2) - 1
    try:
        order = treewidth_order(g, k, budget)
    except BudgetExceeded:
        return PipelineResult("unknown", gate=k)
    ktt = has_ktt(g, t)
    if order is None:
        conditional = k < regime_floor(t) or ktt is not None
        return PipelineResult("tww-exceeds-2", gate=k, conditional=conditional, ktt=ktt)
    if ktt is not None:
        return PipelineResult("not-applicable", gate=k, ktt=ktt)
    td = decomposition_from_order(g, order)
    seq = decomposition_sequence(g, td)
    width = verify_width(g, seq)
    if width > bound:
        raise WidthBoundMissed(width, bound)
    return PipelineResult("sequence", gate=k, sequence=seq, width=width, bound=bound)
