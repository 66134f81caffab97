"""Vertex-disjoint A-B paths and minimum vertex separators.

Unit vertex capacities via the standard in/out splitting, held as one
residual network (Ford & Fulkerson): each arc and its reverse carry a
residual capacity, and an augmentation moves one unit from the arc to
its reverse.  Breadth-first augmenting paths scan each node's arcs in
node-id order, so flows, paths and cuts are deterministic.  The path
count always equals the separator size, and a vertex in both A and B
counts as a zero-length path that occupies the vertex.
"""

from collections import deque

from .graphs import Graph

_INF = 1 << 30


class _VertexFlow:
    """Residual network: source -> v_in -> v_out -> sink, vertex arcs cap 1.

    `res[x][y]` is the residual capacity of arc x -> y; every arc has its
    reverse beside it at 0, and no arc has an antiparallel twin, so an
    arc's flow is its reverse arc's residual.
    """

    def __init__(self, g: Graph, A, B, within):
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
        arcs = [(2 + 2 * v, 3 + 2 * v, 1) for v in allowed]
        for u, v in g.edges:
            if u in allowed and v in allowed:
                arcs += [(3 + 2 * u, 2 + 2 * v, _INF), (3 + 2 * v, 2 + 2 * u, _INF)]
        arcs += [(0, 2 + 2 * a, _INF) for a in self.A]
        arcs += [(3 + 2 * b, 1, _INF) for b in self.B]
        res: dict[int, dict[int, int]] = {}
        for x, y, c in arcs:
            res.setdefault(x, {})[y] = c
            res.setdefault(y, {})[x] = 0
        # scan each node's arcs, forward and reverse, in node-id order
        self.res = {x: dict(sorted(out.items())) for x, out in res.items()}
        self.arcs = [(x, y) for x, y, _ in arcs]

    def max_flow(self) -> tuple[int, set[int]]:
        """Augment one unit along a shortest residual path until none is
        left; returns the flow value and the nodes the source still reaches."""
        res = self.res
        value = 0
        while True:
            parent = {0: 0}
            queue = deque([0])
            while queue and 1 not in parent:
                x = queue.popleft()
                for y, r in res[x].items():
                    if r > 0 and y not in parent:
                        parent[y] = x
                        queue.append(y)
            if 1 not in parent:
                return value, set(parent)
            y = 1
            while y != 0:
                x = parent[y]
                res[x][y] -= 1
                res[y][x] += 1
                y = x
            value += 1

    def paths(self) -> list[list[int]]:
        """Decompose the integral flow into vertex paths."""
        used = {(x, y): self.res[y][x] for x, y in self.arcs}
        result = []
        while True:
            # trace one unit from the source along positive flow arcs
            start = next((y for y in self.res[0] if used.get((0, y), 0) > 0), None)
            if start is None:
                break
            used[(0, start)] -= 1
            node, path = start, []
            while node != 1:
                if node % 2 == 0:
                    path.append((node - 2) // 2)
                nxt = next((y for y in self.res[node] if used.get((node, y), 0) > 0), None)
                if nxt is None:
                    raise AssertionError("flow decomposition lost a unit")
                used[(node, nxt)] -= 1
                node = nxt
            result.append(path)
        return sorted(result)


def max_disjoint_paths(g: Graph, A, B, within=None) -> tuple[int, list[list[int]]]:
    """Maximum family of pairwise vertex-disjoint A-B paths.

    Returns (count, paths); each path is a vertex list starting in A and
    ending in B (a single vertex for members of A & B).  `within`
    restricts the search to an induced subgraph.
    """
    net = _VertexFlow(g, A, B, within)
    value, _ = net.max_flow()
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


def min_vertex_cut(g: Graph, A, B, within=None) -> frozenset[int]:
    """A minimum vertex set meeting every A-B path (may include A or B vertices)."""
    net = _VertexFlow(g, A, B, within)
    value, side = net.max_flow()
    cut = frozenset(
        v for v in net.allowed if (2 + 2 * v) in side and (3 + 2 * v) not in side
    )
    if len(cut) != value:
        raise AssertionError("max-flow/min-cut mismatch")
    return cut
