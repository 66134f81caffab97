"""Vertex partitions and their quotient trigraphs.

The quotient of (G, P) has one vertex per part; parts P1, P2 are joined
iff some G-edge crosses P1 x P2, and the edge is red iff the crossing is
not complete.  A part pair with zero crossing edges is a non-edge, not a
black edge.  One pass over G's edges counts the crossings of every part
pair, so a quotient costs O(n + m) whatever the number of parts;
`split_part` rebuilds it that way too.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph, Trigraph, pair


@dataclass(frozen=True)
class VertexPartition:
    """Partition of 0..n-1 into nonempty parts, each with a stable id."""

    n: int
    parts: tuple[tuple[int, frozenset[int]], ...]

    def __post_init__(self):
        seen: set[int] = set()
        ids = set()
        for pid, members in self.parts:
            if pid in ids:
                raise ValueError(f"duplicate part id {pid}")
            ids.add(pid)
            if not members:
                raise ValueError(f"empty part {pid}")
            if members & seen:
                raise ValueError("parts are not disjoint")
            seen |= members
        if seen != set(range(self.n)):
            raise ValueError("parts do not cover 0..n-1")

    @cached_property
    def by_id(self) -> dict[int, frozenset[int]]:
        return dict(self.parts)

    @cached_property
    def part_of(self) -> tuple[int, ...]:
        owner = [0] * self.n
        for pid, members in self.parts:
            for v in members:
                owner[v] = pid
        return tuple(owner)

    def ids(self) -> tuple[int, ...]:
        return tuple(pid for pid, _ in self.parts)

    def members(self, pid: int) -> frozenset[int]:
        try:
            return self.by_id[pid]
        except KeyError:
            raise ValueError(f"unknown part id {pid}") from None

    def size(self, pid: int) -> int:
        return len(self.members(pid))

    def __len__(self) -> int:
        return len(self.parts)


def partition_from_blocks(n: int, blocks, ids=None) -> VertexPartition:
    """Build a partition; default part ids are each block's minimum vertex."""
    blocks = [frozenset(b) for b in blocks]
    if ids is None:
        ids = [min(b) for b in blocks if b]
    parts = tuple(sorted(zip(ids, blocks)))
    return VertexPartition(n, parts)


def singleton_partition(n: int) -> VertexPartition:
    return VertexPartition(n, tuple((v, frozenset((v,))) for v in range(n)))


@dataclass(frozen=True)
class PartitionedTrigraph:
    """A partition together with its quotient trigraph over part ids."""

    partition: VertexPartition
    quotient: Trigraph


def quotient(g: Graph, p: VertexPartition) -> PartitionedTrigraph:
    """The partitioned trigraph of (g, p), from one pass over g's edges:
    a part pair is black iff its crossing count is |A|·|B|, else red."""
    if p.n != g.n:
        raise ValueError(f"partition is over {p.n} vertices, graph has {g.n}")
    owner = p.part_of
    crossing = Counter(pair(owner[u], owner[v]) for u, v in g.edges if owner[u] != owner[v])
    size = {pid: len(members) for pid, members in p.parts}
    black = frozenset(e for e, count in crossing.items() if count == size[e[0]] * size[e[1]])
    return PartitionedTrigraph(p, Trigraph(frozenset(p.ids()), black, frozenset(crossing.keys() - black)))


def split_part(
    g: Graph,
    pt: PartitionedTrigraph,
    parent: int,
    child_a: tuple[int, frozenset[int]],
    child_b: tuple[int, frozenset[int]],
) -> PartitionedTrigraph:
    """Refine one part into two; the refined partition's quotient, built
    by `quotient` in one pass over g's edges."""
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
    return quotient(g, VertexPartition(p.n, new_parts))
