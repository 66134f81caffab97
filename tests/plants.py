"""Plant-then-find fixtures for the mesh-driven witness search.

Each plant is a wall-derived host graph, a complete uncontraction chain
whose prefix carves strips until an engineered partition appears, the
extracted mesh, and the witness the search must return.  The factory
checks its own engineering: the engineered level must be exactly the
first one where every part drops below the 4k^2 branching threshold, with
the intended part as the unique heaviest; parameter combinations that
fail the checks are skipped.
"""

from dataclasses import dataclass
from functools import lru_cache

from twinwidth.graphs import Graph, pair
from twinwidth.sequences import UncontractionSequence, uncontraction_from_chain
from twinwidth.structure import MeshEmbedding, gen_wall, subdivide_wall, wall_to_mesh
from twinwidth.witness import MeshWitness


@dataclass(frozen=True)
class Plant:
    name: str
    g: Graph
    useq: UncontractionSequence
    mesh: MeshEmbedding
    k: int
    t: int
    expected: MeshWitness | None  # None for starved controls
    stage: str | None = None  # expected miss stage, when known


class PlantError(ValueError):
    """Parameter combination does not engineer the intended state."""


def _complete_chain(n: int, prefix: list[list[frozenset[int]]]) -> list[list[frozenset[int]]]:
    chain = [list(level) for level in prefix]
    while len(chain) < n:
        last = chain[-1]
        big = min((b for b in last if len(b) >= 2), key=min)
        v = min(big)
        chain.append([b for b in last if b is not big] + [frozenset([v]), big - {v}])
    return chain


def _strip_plant(
    wall_m: int,
    z_start: int,
    z_width: int,
    k: int,
    by_rows: bool,
    subdivide: int,
    carve_right: bool = False,
) -> Plant:
    """Carve singleton strips toward Z from one side, lump the other side.

    The chain beyond Z runs through the carved singles, so the witness
    lands on the carved side: X3, X2, X1 are the three strips next to Z.
    """
    lo, hi = z_start, z_start + z_width  # Z occupies strips lo..hi-1
    if (not carve_right and lo < 3) or (carve_right and hi + 3 > wall_m) or lo < 1 or hi >= wall_m:
        raise PlantError("no room for the chain strips")
    g, wl = gen_wall(wall_m)
    if subdivide:
        g, wl = subdivide_wall(g, wl, subdivide)
    mesh = wall_to_mesh(g, wl, (wall_m - 2) // 2)
    heavy_all, heavy_half = 4 * k * k, 2 * k * k

    strips: list[set[int]] = [set() for _ in range(wall_m)]
    for i in range(wall_m):
        for j in range(wall_m):
            strips[i if by_rows else j].add(wl.grid[i][j])
    for a, b in wl.wall_edges():
        interior = wl.edge_paths.get(pair(a, b), ())
        if interior:
            # interiors follow the lexically smaller endpoint's strip
            i, j = divmod(min(a, b), wall_m)
            strips[i if by_rows else j].update(interior)
    strips = [frozenset(s) for s in strips]

    z = frozenset().union(*strips[lo:hi])
    carved = list(range(wall_m - 1, hi - 1, -1)) if carve_right else list(range(lo))
    lump_range = range(lo) if carve_right else range(hi, wall_m)
    rest = frozenset().union(*(strips[c] for c in lump_range)) if len(lump_range) else None
    prefix: list[list[frozenset[int]]] = [[frozenset(range(g.n))]]
    for c in carved:
        last = prefix[-1][-1]
        prefix.append(prefix[-1][:-1] + [strips[c], last - strips[c]])
    if rest is None:
        raise PlantError("the far side must be a nonempty lump")
    prefix.append(prefix[-1][:-1] + [z, rest])

    bv = mesh.branching
    for level in prefix[:-1]:
        if max(len(b & bv) for b in level) < heavy_all:
            raise PlantError("the heavy part dissolves before the engineered level")
    final = prefix[-1]
    if any(len(b & bv) >= heavy_all for b in final):
        raise PlantError("engineered level still has a 4k^2-heavy part")
    zw = len(z & bv)
    if zw < heavy_half:
        raise PlantError("planted part is too light")
    # the search takes the heavier child of the final split, ties by id
    if (-len(rest & bv), min(rest)) < (-zw, min(z)):
        raise PlantError("planted part is not the final split's heavier child")

    useq = uncontraction_from_chain(g.n, _complete_chain(g.n, prefix))
    side = (hi, hi + 1, hi + 2) if carve_right else (lo - 1, lo - 2, lo - 3)
    expected = MeshWitness(
        m=len(final),
        x1=min(strips[side[2]]),
        x2=min(strips[side[1]]),
        x3=min(strips[side[0]]),
        x4=min(z),
        s=k,
    )
    name = "{}-wall{}-z{}w{}-sub{}-k{}{}".format(
        "rows" if by_rows else "cols", wall_m, z_start, z_width, subdivide, k,
        "-right" if carve_right else "",
    )
    return Plant(name, g, useq, mesh, k, 1, expected)


@lru_cache(maxsize=None)
def planted_cases() -> tuple[Plant, ...]:
    """Fifty engineered states whose witness position is known by
    construction, built once per session."""
    plants = []
    for subdivide in (0, 1, 2):
        for by_rows in (False, True):
            for carve_right in (False, True):
                for wall_m in (10, 12, 14):
                    for z_width in (2, 3):
                        for z_start in range(1, wall_m - z_width):
                            try:
                                plants.append(
                                    _strip_plant(wall_m, z_start, z_width, 2, by_rows, subdivide, carve_right)
                                )
                            except PlantError:
                                continue
                            if len(plants) == 50:
                                return tuple(plants)
    raise AssertionError(f"only {len(plants)} valid plants")


@lru_cache(maxsize=None)
def starved_cases() -> tuple[Plant, ...]:
    """Threshold-starved controls, built once per session: the search must
    report NOT_FOUND."""
    out = []

    # mesh too small for the thresholds: no part can hold 2k^2 branchers
    g, wl = gen_wall(6)
    mesh = wall_to_mesh(g, wl, 2)
    useq = uncontraction_from_chain(g.n, _complete_chain(g.n, [[frozenset(range(g.n))]]))
    out.append(Plant("small-mesh-k3", g, useq, mesh, 3, 1, None, stage="no heavy part"))

    g, wl = gen_wall(4)
    mesh = wall_to_mesh(g, wl, 1)
    useq = uncontraction_from_chain(g.n, _complete_chain(g.n, [[frozenset(range(g.n))]]))
    out.append(Plant("tiny-mesh-k2", g, useq, mesh, 2, 1, None, stage="no heavy part"))

    # heavy part exists but its chain has red degree 3: strips {3,4,5} plus {7}
    g, wl = gen_wall(10)
    mesh = wall_to_mesh(g, wl, 4)
    cols = [frozenset(wl.grid[i][j] for i in range(10)) for j in range(10)]
    z = cols[3] | cols[4] | cols[5] | cols[7]
    prefix = [[frozenset(range(g.n))]]
    for c in (0, 1, 2, 6):
        last = prefix[-1][-1]
        prefix.append(prefix[-1][:-1] + [cols[c], last - cols[c]])
    last = prefix[-1][-1]
    prefix.append(prefix[-1][:-1] + [z, last - z])
    useq = uncontraction_from_chain(g.n, _complete_chain(g.n, prefix))
    out.append(Plant("scattered-z", g, useq, mesh, 2, 1, None, stage="red degree above 2 on chain"))

    # five column bands cover the whole wall: no row can leave the chain
    g, wl = gen_wall(12)
    mesh = wall_to_mesh(g, wl, 5)
    cols = [frozenset(wl.grid[i][j] for i in range(12)) for j in range(12)]
    l2, l1 = cols[0] | cols[1], cols[2] | cols[3]
    z = cols[4] | cols[5] | cols[6]
    r1, r2 = cols[7] | cols[8], cols[9] | cols[10] | cols[11]
    prefix = [
        [frozenset(range(g.n))],
        [l2 | l1, z | r1 | r2],
        [l2, l1, z | r1 | r2],
        [l2, l1, z | r1, r2],
        [l2, l1, z, r1, r2],
    ]
    useq = uncontraction_from_chain(g.n, _complete_chain(g.n, prefix))
    out.append(Plant("bands-cover-wall", g, useq, mesh, 2, 1, None, stage="row escape failed"))

    # both chain sides below t: same strips as a planted case, huge t
    base = _strip_plant(10, 4, 3, 2, by_rows=False, subdivide=0)
    out.append(Plant("t-too-large", base.g, base.useq, base.mesh, 2, 11, None,
                     stage="both sides small: separator check"))
    return tuple(out)
