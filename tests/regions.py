"""References for the cells, the twist and the quiver read, shared by the
model and verify tests: the vertex-cycle region split, the region twist
and the face-reading quiver that the arc-run cells replaced, the annulus
cell rule read in a cut that the residue rule replaced, and the arc pool
of the annulus maximal-set trials; and every angulation of a disk,
decoded from the enumeration's keys."""

from angulator.annulus import Bridge, BridgeCut, InnerChord, OuterChord
from angulator.disk import Diagonal, DiskAngulation, InvalidAngulation, enumerate_angulations
from angulator.faces import cell_vertices
from angulator.quiver import ColoredQuiver


def merged_region(ang, d):
    """Vertex cycle of the (2m+2)-gon around the diagonal d, clockwise:
    the union of the two faces of ``ang.faces()`` that have d as a side."""
    beside = [f for f in ang.faces() if d in f.sides]
    assert len(beside) == 2, f"{d} is a side of {len(beside)} faces"
    return tuple(sorted({v for f in beside for v in f.vertices}))


def region_twist(region, d, m):
    """Twist of a chord inside a fixed (2m+2)-gon region cycle."""
    L = len(region)
    x = region.index(d.a)
    y = region.index(d.b)
    if (y - x) % L not in (m + 1, L - (m + 1)):
        raise InvalidAngulation(f"{d} does not split the region {region}")
    return Diagonal(region[(x + 1) % L], region[(y + 1) % L])


def reference_split(cycle, chords):
    """Vertex cycles of the regions a chord set cuts a polygon into, by
    cutting along one chord at a time: ``cycle`` lists the vertices
    clockwise, and each chord is a pair of them."""
    out = []
    stack = [(list(cycle), list(chords))]
    while stack:
        cycle, chords = stack.pop()
        if not chords:
            out.append(cycle)
            continue
        a, b = sorted(chords[0], key=cycle.index)
        ia, ib = cycle.index(a), cycle.index(b)
        side1 = cycle[ia : ib + 1]
        side2 = cycle[ib:] + cycle[: ia + 1]
        set1 = set(side1)
        in1, in2 = [], []
        for ch in chords[1:]:
            u, v = ch
            (in1 if u in set1 and v in set1 else in2).append(ch)
        stack.append((side2, in2))
        stack.append((side1, in1))
    return out


def reference_quiver(m, n, vertex, faces):
    """Colored quiver read from public faces: ``vertex`` maps a face side
    to the vertex of the arc it stands for, and the arrow d -> e of two
    sides of one face gets the number of the face's sides strictly between
    them clockwise from d."""
    arrows = {}
    for face in faces:
        assert len(face.sides) == m + 2
        spots = [(pos, vertex[s]) for pos, s in enumerate(face.sides) if s in vertex]
        for pi, vi in spots:
            for pj, vj in spots:
                if vi != vj:
                    key = (vi, vj, (pj - pi - 1) % len(face.sides))
                    arrows[key] = arrows.get(key, 0) + 1
    return ColoredQuiver(m, n, arrows)


def least_rotation(cycle):
    """A vertex cycle read from its least rotation."""
    cycle = tuple(cycle)
    return min(cycle[i:] + cycle[:i] for i in range(len(cycle)))


def cycles(sides, cells):
    """Arc-run cells as their sorted vertex cycles, each read from its
    least rotation."""
    return sorted(least_rotation(cell_vertices(sides, c)) for c in cells)


def reference_cycles(sides, chords):
    """What ``cycles`` gives for the cells of a fresh split, by the
    reference split."""
    return sorted(least_rotation(r) for r in reference_split(range(1, sides + 1), chords))


def reference_cell_problems(ang):
    """The annulus cell rule as the cut along the least bridge reads it:
    in arc order, the arcs whose diagonal is no m-diagonal of the cut
    disk, named as ``violations()`` names them.  The arcs of ``ang`` must
    be noncrossing and hold a bridge."""
    ref = ang.bridges()[0]
    cut = BridgeCut(ang.config, ref)
    return [f"{a} is not an m-diagonal of the cut along {ref}"
            for a in ang.arcs if a != ref and not cut.disk.is_m_diagonal(cut.to_disk(a))]


def maximal_set_pool(cfg):
    """The arc pool of ``check_annulus_maximal``: bridges with windings
    up to p+q+3 from zero, and the chords that are m-diagonals."""
    window = cfg.p + cfg.q + 3
    pool = [Bridge(o, i, w) for o in range(1, cfg.outer_len + 1)
            for i in range(1, cfg.inner_len + 1) for w in range(-window, window + 1)]
    for kind, length in ((OuterChord, cfg.outer_len), (InnerChord, cfg.inner_len)):
        pool += [kind(s, t) for s in range(1, length + 1)
                 for t in range(cfg.m + 1, length, cfg.m)]
    return [a for a in pool if cfg.is_m_diagonal(a)]


def all_angulations(cfg):
    """Every angulation of a disk, in the order enumerated: the keys of
    ``enumerate_angulations(cfg, collect=True)``, each decoded by
    ``DiskAngulation.from_key``."""
    _, keys = enumerate_angulations(cfg, collect=True)
    return [DiskAngulation.from_key(cfg, key) for key in keys]
