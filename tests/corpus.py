"""Shared test corpora: named graphs, exhaustive isomorphism-free
enumerations (atlas up to 7 vertices, canonical extension to 8), and
seeded random graph families.
"""

import random
from functools import lru_cache
from itertools import combinations

import networkx as nx

from twinwidth.graphs import Graph, cycle_graph, graph_from_edges, grid_graph, pair
from twinwidth.partitions import VertexPartition, partition_from_blocks
from twinwidth.sequences import ContractionSequence, sequence_from_pairs
from twinwidth.structure import has_ktt


@lru_cache(maxsize=None)
def atlas_graphs(max_n: int) -> tuple[Graph, ...]:
    """All graphs with 1..max_n vertices up to isomorphism (max_n <= 7)."""
    if max_n > 7:
        raise ValueError("the atlas stops at 7 vertices")
    out = []
    for ag in nx.graph_atlas_g()[1:]:
        if ag.number_of_nodes() > max_n:
            continue
        out.append(graph_from_edges(ag.number_of_nodes(), ag.edges()))
    return tuple(out)


# ------------------------- canonical forms for the 8-vertex enumeration


def _refine(adj: list[set[int]], colors: tuple[int, ...]) -> tuple[int, ...]:
    while True:
        sig = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(len(adj))]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = tuple(rank[s] for s in sig)
        if new == colors:
            return new
        colors = new


def _code(n: int, edges, perm: list[int]) -> int:
    c = 0
    for u, v in edges:
        a, b = perm[u], perm[v]
        if a > b:
            a, b = b, a
        c |= 1 << (a * n + b)
    return c


def canonical_code(g: Graph) -> int:
    """Order-independent integer encoding via individualization-refinement."""
    n = g.n
    adj = [set(g.adj[v]) for v in range(n)]
    edges = sorted(g.edges)
    best = None

    def search(colors: tuple[int, ...]) -> None:
        nonlocal best
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            classes.setdefault(c, []).append(v)
        target = next((c for c in sorted(classes) if len(classes[c]) > 1), None)
        if target is None:
            perm = [0] * n
            for pos, v in enumerate(sorted(range(n), key=lambda v: colors[v])):
                perm[v] = pos
            code = _code(n, edges, perm)
            if best is None or code < best:
                best = code
            return
        for v in classes[target]:
            marked = tuple((c, 0 if u == v else 1) for u, c in enumerate(colors))
            rank = {s: i for i, s in enumerate(sorted(set(marked)))}
            search(_refine(adj, tuple(rank[s] for s in marked)))

    search(_refine(adj, (0,) * n))
    return best if best is not None else 0


@lru_cache(maxsize=None)
def graphs_with_8_vertices() -> tuple[Graph, ...]:
    """All 12346 graphs on exactly 8 vertices, by canonical extension of
    the 7-vertex atlas."""
    seen: set[int] = set()
    out: list[Graph] = []
    for g7 in atlas_graphs(7):
        if g7.n != 7:
            continue
        base = sorted(g7.edges)
        for mask in range(256):
            extra = [(v, 7) for v in range(8) if mask >> v & 1 and v < 7]
            if mask >> 7 & 1:
                continue
            g = graph_from_edges(8, base + extra)
            code = canonical_code(g)
            if code not in seen:
                seen.add(code)
                out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def graphs_up_to_8() -> tuple[Graph, ...]:
    return atlas_graphs(7) + graphs_with_8_vertices()


# ------------------------------------------------------- random corpora


def random_graph(rng: random.Random, n: int, p: float | None = None) -> Graph:
    if p is None:
        p = rng.uniform(0.1, 0.9)
    return graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def random_graphs(seed: int, count: int, n_max: int, n_min: int = 1) -> list[Graph]:
    rng = random.Random(seed)
    return [random_graph(rng, rng.randint(n_min, n_max)) for _ in range(count)]


def random_sparse(rng: random.Random, n: int) -> Graph:
    """A random tree plus 0.5n-1.5n chords, like the benchmark's gated graphs."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    extra = rng.randint(n // 2, 3 * n // 2)
    while len(edges) < n - 1 + extra:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return graph_from_edges(n, edges)


def random_cograph(rng: random.Random, n: int) -> Graph:
    """A random cograph on n >= 1 vertices: a random split of a shuffled
    vertex list, each side built recursively, joined completely or not
    at all by a coin flip."""
    verts = list(range(n))
    rng.shuffle(verts)
    edges = []

    def build(vs: list[int]) -> None:
        if len(vs) > 1:
            k = rng.randint(1, len(vs) - 1)
            build(vs[:k])
            build(vs[k:])
            if rng.random() < 0.5:
                edges.extend((u, v) for u in vs[:k] for v in vs[k:])

    build(verts)
    return graph_from_edges(n, edges)


def random_ktt_free(rng: random.Random, n: int, t: int = 2, p: float = 0.4) -> Graph:
    """Random graph thinned until no K_{t,t} remains (deterministic repair)."""
    g = random_graph(rng, n, p)
    while True:
        hit = has_ktt(g, t)
        if hit is None:
            return g
        a, b = hit
        g = graph_from_edges(n, g.edges - {tuple(sorted((a[0], b[0])))})


def singleton_partition(n: int) -> VertexPartition:
    return partition_from_blocks(n, ({v} for v in range(n)))


def write_partition(p: VertexPartition) -> str:
    """A partition in the text format `io.read_partition` reads."""
    lines = [" ".join(str(v + 1) for v in sorted(members)) for _, members in p.parts]
    return "\n".join(lines) + "\n"


def random_partition(rng: random.Random, n: int):
    """Uniform-ish random partition blocks of 0..n-1."""
    blocks: list[set[int]] = []
    for v in range(n):
        i = rng.randint(0, len(blocks))
        if i == len(blocks):
            blocks.append({v})
        else:
            blocks[i].add(v)
    return blocks


def random_merge_order(rng: random.Random, n: int) -> ContractionSequence:
    """A sequence merging two uniformly random live vertices per step."""
    live, pairs = list(range(n)), []
    for j in range(n - 1):
        picked = []
        for _ in range(2):
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            picked.append(live.pop())
        live.append(n + j)
        pairs.append(picked)
    return sequence_from_pairs(n, pairs)


def red_paths(red_adj) -> list[tuple[int, int, int, int]]:
    """Every red path X1-X2-X3-X4 on four distinct parts, in both directions."""
    return [
        (x1, x2, x3, x4)
        for x2 in sorted(red_adj)
        for x3 in sorted(red_adj[x2])
        for x1 in sorted(red_adj[x2] - {x3})
        for x4 in sorted(red_adj[x3] - {x1, x2})
    ]


def random_tree(rng: random.Random, n: int) -> Graph:
    return graph_from_edges(n, [(rng.randrange(i), i) for i in range(1, n)])


def star(n: int) -> Graph:
    """K_{1,n-1}: the hub 0 and n - 1 leaves."""
    return graph_from_edges(n, ((0, v) for v in range(1, n)))


def subdivided_star(arms: int) -> Graph:
    """The hub 0 with `arms` paths of two edges; arm a is 0-(2a+1)-(2a+2)."""
    return graph_from_edges(2 * arms + 1, (e for a in range(arms) for e in ((0, 2 * a + 1), (2 * a + 1, 2 * a + 2))))


def grid_with_tail(side: int = 5, tail: int = 1200) -> Graph:
    """The side x side grid with a path of `tail` new vertices hung on its
    last vertex: tree-width `side`, and a search `tail` levels deep."""
    last = side * side - 1
    return graph_from_edges(last + 1 + tail, [*grid_graph(side).edges, *((v, v + 1) for v in range(last, last + tail))])


def certify_family(rng: random.Random) -> list[Graph]:
    """Trees, caterpillars, ear graphs, subdivided K4s and cycles, like the
    benchmark's certify ops, then stars and subdivided stars."""
    graphs = [random_tree(rng, n) for n in (2, 3, 10, 60, 300)]
    for spine, legs in ((1, 0), (5, 3), (40, 20), (200, 0), (200, 100)):
        graphs.append(graph_from_edges(spine + legs, [(i, i + 1) for i in range(spine - 1)]
                                       + [(rng.randrange(spine), spine + j) for j in range(legs)]))
    for ears in range(0, 18, 3):  # a 5-cycle with paths of length 4 hung on its edges
        edges, n = {pair(i, (i + 1) % 5) for i in range(5)}, 5
        for _ in range(ears):
            u, v = rng.choice(sorted(edges))
            chain = [u, n, n + 1, n + 2, v]
            n += 3
            edges |= {pair(a, b) for a, b in zip(chain, chain[1:])}
        graphs.append(graph_from_edges(n, edges))
    for times in (0, 1, 3, 8):
        edges, n = [], 4
        for u, v in combinations(range(4), 2):
            chain = [u, *range(n, n + times), v]
            n += times
            edges += zip(chain, chain[1:])
        graphs.append(graph_from_edges(n, edges))
    graphs += [cycle_graph(n) for n in (3, 4, 20, 150)]
    return graphs + [star(n) for n in (2, 3, 4, 40, 300)] + [subdivided_star(a) for a in (1, 2, 3, 20, 150)]
