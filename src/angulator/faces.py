"""Cell machinery shared by the disk and annulus models.

A cell is an (m+2)-gon of an angulation of a polygon whose S vertices are
labelled 1..S clockwise (clockwise meaning the direction of increasing
labels).  It is stored as the cyclic tuple of its arc runs in clockwise
order: a run (u, v) is a chord of the cell, traversed from u to v.  The
boundary edges between two runs are implied: after a run come
(next u - v) % S of them.  So the split, the twist, the flip and the
quiver read work on the r arcs alone; only ``cell_vertices`` walks the
boundary vertices of a cell.  Arrow colors of the associated quiver are
read off the cells here, so both geometric models use one orientation
convention.  ``Face`` is the expanded form of a cell that the public
``faces()`` methods list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .quiver import ColoredQuiver, VertexRangeError

# a cell: its arc runs (u, v) in clockwise order
Cell = tuple[tuple[int, int], ...]
# a twist table, which holds a set of cells: each run (u, v) of a cell ->
# the cell and the run's index in it
Table = dict[tuple[int, int], tuple[Cell, int]]


@dataclass(frozen=True)
class Face:
    """One cell: ``sides[i]`` joins ``vertices[i]`` to ``vertices[i+1]``."""

    vertices: tuple
    sides: tuple

    def __len__(self):
        return len(self.sides)


def cell_size(sides: int, cell: Cell) -> int:
    """The side count of ``cell``: its runs plus its gaps.  Each gap ends
    where the next run starts, so the gaps add up to the sum of u - v
    over the runs (u, v), mod ``sides``; they are fewer than ``sides``.
    The empty cell of a polygon without chords is the whole polygon."""
    return len(cell) + sum([u - v for u, v in cell]) % sides if cell else sides


def cell_vertices(sides: int, cell: Cell) -> list[int]:
    """The vertex cycle of ``cell``, clockwise from its first run's start."""
    if not cell:
        return list(range(1, sides + 1))
    out = []
    for (u, v), (w, _) in zip(cell, cell[1:] + cell[:1]):
        out.append(u)
        # the gap: the boundary vertices from v up to the next run's start w
        out.extend((x - 1) % sides + 1 for x in range(v, v + (w - v) % sides))
    return out


def step_after(sides: int, cell: Cell, i: int) -> tuple[int, int]:
    """The vertex the step after run i of ``cell`` ends at, and the number
    of runs that step takes: 1 when the next run starts where run i ends,
    0 when the step is the boundary edge from there."""
    end = cell[i][1]
    u, v = cell[i + 1 - len(cell)]
    return (v, 1) if u == end else (end % sides + 1, 0)


def twist_ends(sides: int, table: Table, chord: Sequence[int]) -> tuple[int, int]:
    """The twist rule: the ends (x, y) of the twist of the chord (a, b),
    a < b, read from the twist ``table`` of its cells.  x is the end of
    the first step from a round the cell inside [a, b], y that of the
    first step from b round the cell outside: each end of the chord moved
    one place clockwise round the region the two cells merge into."""
    a, b = chord
    (inner, i), (outer, j) = table[b, a], table[a, b]
    return step_after(sides, inner, i)[0], step_after(sides, outer, j)[0]


def flip_cells(sides: int, table: Table, chord: Sequence[int]) -> Table:
    """The cell flip at the chord (a, b), a < b: the two cells beside it,
    merged and split again at its twist (x, y), read from the old cells
    alone.  The merged region runs from a to b through the cell inside
    [a, b] and from b to a through the cell outside.  Returns the twist
    table of the result: ``table`` without the chord's runs and with the
    entries of the two new cells rewritten."""
    a, b = chord
    (inner, i), (outer, j) = table[b, a], table[a, b]
    x, ka = step_after(sides, inner, i)
    y, kb = step_after(sides, outer, j)
    from_a = inner[i + 1:] + inner[:i]
    from_b = outer[j + 1:] + outer[:j]
    out = dict(table)
    del out[a, b], out[b, a]
    for cell in (from_a[ka:] + from_b[:kb] + ((y, x),),
                 from_b[kb:] + from_a[:ka] + ((x, y),)):
        out.update((run, (cell, n)) for n, run in enumerate(cell))
    return out


def split_regions(sides: int, chords: Iterable[Sequence[int]]) -> list[Cell]:
    """The cells a chord set cuts the polygon with vertices 1..``sides`` into.

    Every chord is a pair (a, b) with a < b, such as a ``Diagonal``, and
    the chords must be pairwise noncrossing.  One sort by (a, -b) lists
    each chord after the chords that enclose it, so a stack of the open
    chords gives the nesting tree.  The cell inside a chord (a, b) is the
    chord run backwards, (b, a), then the runs of its children; the root
    cell holds the top-level chords.  A polygon without chords is one
    empty cell.  The cost is O(r log r) in the chord count r, whatever
    ``sides`` is.
    """
    cells = []
    # each open cell: the end b of its chord, then its runs so far; the
    # root's end lies past every vertex
    stack = [(sides + 1, [])]
    for a, minus_b in sorted((a, -b) for a, b in chords):
        b = -minus_b
        while stack[-1][0] <= a:
            cells.append(tuple(stack.pop()[1]))
        stack[-1][1].append((a, b))
        stack.append((b, [(b, a)]))
    cells.extend(tuple(runs) for _, runs in reversed(stack))
    return cells


def quiver_from_faces(
    m: int,
    n: int,
    sides: int,
    vertex: Mapping[tuple[int, int], int],
    edges: Mapping[int, int],
    cells: Iterable[Cell],
) -> ColoredQuiver:
    """Colored quiver on vertices 0..n-1 read from the cells of a polygon
    with ``sides`` vertices.

    ``vertex`` maps each arc, as the pair (a, b) with a < b, to its quiver
    vertex; every run of a cell is such an arc.  ``edges`` maps the start
    vertex of a boundary edge that stands for an arc to that arc's
    vertex, as the two copies of the bridge that an annulus is cut open
    along do.  A run's position in its cell is its index plus the gaps
    before it; such an edge's position is the position of the run before
    it, plus one, plus its offset in the gap.  For arcs d, e on one cell
    the arrow d -> e gets the color (pos_e - pos_d - 1) % (m+2), the
    number of the cell's sides strictly between d and e clockwise from d;
    under this orientation flips of angulations commute with colored
    quiver mutation.

    Before any arrow is read, a cell that is not an (m+2)-gon raises
    ValueError and a vertex value outside 0..n-1 raises VertexRangeError;
    then every color lies in 0..m and the quiver is built without a range
    check.
    """
    size = m + 2
    read = []
    for cell in cells:
        spots, pos = [], 0
        for (u, v), (w, _) in zip(cell, cell[1:] + cell[:1]):
            spots.append((pos, vertex[(u, v) if u < v else (v, u)]))
            gap = (w - v) % sides
            for start, x in edges.items():
                offset = (start - v) % sides
                if offset < gap:
                    spots.append((pos + 1 + offset, x))
            pos += 1 + gap
        # an empty cell, with no chord to start from, is the whole polygon
        if (pos or sides) != size:
            raise ValueError(f"cell {cell} has {pos or sides} sides, expected {size}")
        read.append(spots)
    for v in (*vertex.values(), *edges.values()):
        if not 0 <= v < n:
            raise VertexRangeError.of(f"vertex {v}", n)
    arrows = {}
    for spots in read:
        for pi, vi in spots:
            for pj, vj in spots:
                if vi == vj:
                    continue
                key = (vi, vj, (pj - pi - 1) % size)
                arrows[key] = arrows.get(key, 0) + 1
    return ColoredQuiver._unchecked(m, n, arrows)
