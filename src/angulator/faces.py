"""Face machinery shared by the disk and annulus models.

A face is an (m+2)-gon cell of an angulation, stored as its boundary sides
in clockwise cyclic order (clockwise meaning the direction of increasing
vertex labels).  Arrow colors of the associated quiver are read off faces
here, so both geometric models use one orientation convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .quiver import ColoredQuiver, VertexRangeError


@dataclass(frozen=True)
class Face:
    """One cell: ``sides[i]`` joins ``vertices[i]`` to ``vertices[i+1]``."""

    vertices: tuple
    sides: tuple

    def __len__(self):
        return len(self.sides)


def split_regions(cycle: Sequence[Hashable], chords: Iterable[frozenset]) -> list[list]:
    """Vertex cycles of the regions a chord set cuts a polygon into.

    ``cycle`` lists the polygon's vertices in clockwise order; every chord is
    a frozenset pair of cycle members.  Chords must be pairwise noncrossing.
    The first chord splits the polygon in two; the regions of the side
    from its first endpoint (in cycle order) to its second come first,
    then those of the other side, each split by its chords alike.  A work
    stack stands for the recursion, so the chord count is not bounded by
    the interpreter's recursion limit.
    """
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
            u, v = tuple(ch)
            if u in set1 and v in set1:
                in1.append(ch)
            else:
                in2.append(ch)
        # side2 is pushed first, so side1's regions are all listed before it
        stack.append((side2, in2))
        stack.append((side1, in1))
    return out


def quiver_from_faces(
    m: int, n: int, vertex: Mapping[Hashable, int], faces: Iterable[Face]
) -> ColoredQuiver:
    """Colored quiver on vertices 0..n-1 read from a face list.

    ``vertex`` maps a face side to the vertex of the arc it stands for;
    a side it does not hold (a boundary edge) stands for no arc.  Two
    sides may stand for one arc, as the two copies of the bridge that an
    annulus is cut open along do.  For arcs d, e on one face the arrow
    d -> e gets the color counting the face's sides strictly between d and
    e clockwise from d; under this orientation flips of angulations
    commute with colored quiver mutation.

    Before any arrow is read, a face that is not an (m+2)-gon raises
    ValueError and a ``vertex`` value outside 0..n-1 raises
    VertexRangeError; then every color lies in 0..m and the quiver is
    built without a range check.
    """
    faces = tuple(faces)
    for face in faces:
        if len(face.sides) != m + 2:
            raise ValueError(
                f"face {face.vertices} has {len(face.sides)} sides, expected {m + 2}")
    for v in vertex.values():
        if not 0 <= v < n:
            raise VertexRangeError(f"vertex {v} outside 0..{n - 1}")
    arrows = {}
    for face in faces:
        spots = [
            (pos, vertex[side])
            for pos, side in enumerate(face.sides)
            if side in vertex
        ]
        size = len(face.sides)
        for pi, vi in spots:
            for pj, vj in spots:
                if vi == vj:
                    continue
                key = (vi, vj, (pj - pi - 1) % size)
                arrows[key] = arrows.get(key, 0) + 1
    return ColoredQuiver._unchecked(m, n, arrows)
