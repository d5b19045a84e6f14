"""Disk model: m-diagonals of a polygon, (m+2)-angulations, twists and flips.

The polygon has S sides with S = 2 (mod m); vertices are labeled 1..S
clockwise.  An m-diagonal cuts it into two pieces whose side counts are
both = 2 (mod m), so a maximal noncrossing set of them (an angulation)
dissects the polygon into (m+2)-gons.  The twist moves a diagonal to the
clockwise-next chord splitting the merged (2m+2)-gon around it; a flip
replaces a diagonal by its twist.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Iterable, Iterator, Sequence

from .faces import Face, quiver_from_faces, split_regions
from .quiver import ColoredQuiver, json_int

DEFAULT_GUARD = 12


class GuardExceeded(RuntimeError):
    """The enumeration guard refused a configuration as too large."""


class InvalidAngulation(ValueError):
    """A diagonal or arc set violates the angulation invariants."""


class NotInAngulation(ValueError):
    """The diagonal to twist or flip is not part of the angulation."""


class Diagonal(namedtuple("Diagonal", "a b")):
    """A chord of the polygon: the tuple (a, b) with a < b.  Its hash,
    equality and (a, b) order are the tuple's, and run in C."""

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if a == b:
            raise ValueError("a diagonal needs two distinct endpoints")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    @classmethod
    def _make(cls, iterable):
        # the base's _make, which _replace and copy.replace call too,
        # would skip the checks of __new__
        return cls(*iterable)

    def __repr__(self):
        return f"({self.a},{self.b})"


@dataclass(frozen=True)
class Edge:
    """A boundary edge of the polygon, from v to v+1 (mod S)."""

    u: int
    v: int


def crosses(d: Diagonal, e: Diagonal) -> bool:
    """True iff the chords interleave strictly; shared endpoints do not cross."""
    return (d.a < e.a < d.b < e.b) or (e.a < d.a < e.b < d.b)


@dataclass(frozen=True)
class DiskConfig:
    """Polygon size data: color bound m and side count S = 2 (mod m)."""

    m: int
    sides: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.sides < self.m + 2:
            raise ValueError(f"need at least {self.m + 2} sides")
        if (self.sides - 2) % self.m:
            raise ValueError(f"sides must be 2 mod {self.m}")

    @property
    def rank(self) -> int:
        """Number of diagonals in every angulation."""
        return (self.sides - 2) // self.m - 1

    def check_vertex(self, v):
        if not (1 <= v <= self.sides):
            raise IndexError(f"vertex {v} outside 1..{self.sides}")

    def is_m_diagonal(self, d: Diagonal) -> bool:
        """True iff the chord d cuts off two pieces of size 2 (mod m)."""
        self.check_vertex(d.a)
        self.check_vertex(d.b)
        diff = d.b - d.a
        return diff % self.m == 1 % self.m and self.m + 1 <= diff <= self.sides - self.m - 1

    def crosses(self, d: Diagonal, e: Diagonal) -> bool:
        """The module function ``crosses``, looked up at each call."""
        return crosses(d, e)

    def all_diagonals(self) -> list[Diagonal]:
        # combinations come in (a, b) order, the canonical one
        pairs = itertools.combinations(range(1, self.sides + 1), 2)
        return [d for d in itertools.starmap(Diagonal, pairs) if self.is_m_diagonal(d)]

    @cached_property
    def crossing_table(self) -> tuple[list[Diagonal], list[int]]:
        """The m-diagonals in canonical order and, for each index i, the
        bitmask of the indices of the diagonals crossing diagonal i: built
        once per object, from ``crosses`` alone, so the oracles using it
        stay independent of the flip machinery."""
        diagonals = self.all_diagonals()
        masks = [0] * len(diagonals)
        for i, j in itertools.combinations(range(len(diagonals)), 2):
            if crosses(diagonals[i], diagonals[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
        return diagonals, masks

    def is_m_ear(self, d: Diagonal) -> bool:
        """True iff d cuts off a single (m+2)-gon."""
        diff = d.b - d.a
        return diff == self.m + 1 or diff == self.sides - self.m - 1


def arc_set_problems(config, arcs: Sequence) -> Iterator[str]:
    """The arcs that are not m-diagonals of ``config``, then the crossing
    pairs, in the order of ``arcs``."""
    for x in arcs:
        if not config.is_m_diagonal(x):
            yield f"{x} is not an m-diagonal"
    for x, y in itertools.combinations(arcs, 2):
        if config.crosses(x, y):
            yield f"{x} crosses {y}"


class Angulation:
    """What the disk and annulus angulations share: an immutable set of
    arcs of one configuration, in canonical order, checked at most once.
    An arc of either model is a tuple value, and the canonical order is
    the arcs' natural order.

    The configuration answers the questions about single arcs and pairs:
    ``rank``, ``is_m_diagonal``, ``crosses`` and ``is_m_ear``.  On them
    this class builds ``_problems``: the arcs that are no m-diagonals, the
    crossing pairs and a wrong count, to which a model adds its own rules
    through ``_more_problems``.  A flip result's ``_problems`` is worked
    out by ``_flip_problems`` when it is built, from its valid parent and
    the new arc alone, in O(r).

    A model class defines ``_read_quiver`` (its quiver in canonical order,
    read from its faces), ``_require_arc`` (the ``NotInAngulation`` check,
    in O(1) from what the angulation holds) and ``_completions`` (split
    afresh), and ``violations``, ``twist``, ``flip``, ``faces`` and
    ``quiver_of`` in its own namespace, where the span tracer of
    ``perfbench`` finds them.
    The module functions ``completions`` check their input as the
    angulation it completes, through ``_completing``.  A disk has no Dehn
    twist, so only the annulus has ``rebased()``.
    """

    __slots__ = ("config", "arcs", "__dict__")
    _noun = "arcs"  # what the count message calls the arcs

    def __init__(self, config, arcs: Iterable):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "arcs", tuple(sorted(set(arcs))))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.config == other.config
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.config, self.arcs))

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        cfg = self.config
        out = list(arc_set_problems(cfg, self.arcs))
        if len(self.arcs) != cfg.rank:
            out.append(f"{len(self.arcs)} {self._noun}, expected {cfg.rank}")
        return self._more_problems(out)

    def _more_problems(self, found: list[str]) -> tuple[str, ...]:
        """``_problems`` from the shared ones ``found``; a model with
        rules of its own adds them here."""
        return tuple(found)

    def _flip_problems(self, new) -> tuple[str, ...]:
        """The shared ``_problems`` of a flip result whose parent was
        valid: only the new arc can be at fault, by not being an
        m-diagonal, by crossing another arc, or by duplicating one, which
        leaves one arc too few.  The messages and their order are those of
        a fresh object."""
        cfg = self.config
        out = [] if cfg.is_m_diagonal(new) else [f"{new} is not an m-diagonal"]
        # the r - 1 others (new itself is skipped), each pair in canonical order
        for x in self.arcs:
            if x is not new and cfg.crosses(x, new):
                a, b = sorted((x, new))
                out.append(f"{a} crosses {b}")
        if len(self.arcs) != cfg.rank:
            out.append(f"{len(self.arcs)} {self._noun}, expected {cfg.rank}")
        return tuple(out)

    def is_valid(self) -> bool:
        return not self._problems

    def _require_valid(self):
        if self._problems:
            raise InvalidAngulation("; ".join(self._problems))

    @classmethod
    def _completing(cls, config, partial: Iterable, removed) -> list:
        """What the module functions ``completions`` return: the
        completions at ``removed`` of the angulation that ``removed`` and
        ``partial`` form, whose method ``completions`` checks it in full."""
        partial = set(partial)
        if removed in partial:
            raise InvalidAngulation(f"{removed} is still present")
        return cls(config, [removed, *partial]).completions(removed)

    def completions(self, x) -> list:
        """The m+1 arcs completing the others, found afresh by the model's
        ``_completions``, not from what the angulation holds; the others
        need no input check, as this angulation is valid."""
        self._require_arc(x)
        self._require_valid()
        return self._completions(self.config, [a for a in self.arcs if a != x], x)

    def can_flip(self, x) -> bool:
        """False iff flip(x) would leave the model; a disk flip never does."""
        self._require_arc(x)
        return True

    @cached_property
    def _results(self) -> defaultdict:
        """{method: {arc x: method(self, x)}} for the methods made
        ``once_per_arc``, over the arcs asked about so far."""
        return defaultdict(dict)

    @cached_property
    def _quiver(self) -> ColoredQuiver:
        """quiver_of() in canonical order, read from the faces once."""
        return self._read_quiver()

    def _quiver_in(self, order: Sequence) -> ColoredQuiver:
        """quiver_of(order): the canonical quiver with each arc's vertex
        renumbered to the arc's index in ``order``, which is checked to
        list every arc once.  NotInAngulation names an entry that is no
        arc, and ValueError a repeat."""
        for x in order:
            self._require_arc(x)
        position = {x: i for i, x in enumerate(order)}
        if not len(position) == len(order) == len(self.arcs):
            raise ValueError(
                f"the order {list(order)} is not a permutation of the {self._noun}")
        return self._quiver._relabelled([position[x] for x in self.arcs])


def once_per_arc(method):
    """Make a model's ``method(x)`` compute once per (angulation, arc x):
    ``flip(x) is flip(x)``, so a walk step and the checks of that step
    share one result.  x is checked to be an arc first, so that a value
    merely equal to one reads no result."""

    @wraps(method)
    def memo(self, x):
        self._require_arc(x)
        results = self._results[method]
        out = results.get(x)
        if out is None:
            out = results[x] = method(self, x)
        return out

    return memo


def _enter_sides(table: dict, face: Face):
    """Record ``face`` under each diagonal side it has, keyed by the side
    as the face runs it clockwise, with the side's index."""
    verts = face.vertices
    for i, side in enumerate(face.sides):
        if type(side) is Diagonal:
            table[verts[i], verts[(i + 1) % len(verts)]] = (face, i)


class DiskAngulation(Angulation):
    """A maximal noncrossing set of m-diagonals, canonically sorted."""

    __slots__ = ()
    _noun = "diagonals"

    def __repr__(self):
        return "".join(map(repr, self.arcs)) or "(empty)"

    def violations(self) -> list[str]:
        return list(self._problems)

    def _face(self, cycle: Sequence[int]) -> Face:
        S = self.config.sides
        sides = [
            Edge(u, v) if v == u % S + 1 else Diagonal(u, v)
            for u, v in zip(cycle, cycle[1:] + cycle[:1])
        ]
        return Face(tuple(cycle), tuple(sides))

    @cached_property
    def _faces(self) -> tuple[Face, ...]:
        # the public callers check validity, because _flipped() sets this
        # directly for its result
        cycle = list(range(1, self.config.sides + 1))
        return tuple(map(self._face, split_regions(cycle, self.arcs)))

    def faces(self) -> list[Face]:
        """The r+1 cells, each an (m+2)-gon with sides in clockwise order;
        the list order and each cell's first vertex are not fixed."""
        self._require_valid()
        return list(self._faces)

    @cached_property
    def _sides(self) -> dict[tuple[int, int], tuple[Face, int]]:
        """The face-local twist table.  A face runs the sides of a diagonal
        (a, b) clockwise: the face inside [a, b] runs it as (b, a), the face
        outside as (a, b).  The entry of a run side (u, v) is the face and
        the side's index i there, so vertices[i + 2] is the vertex after v.
        A flip hands its result this table with the sides of the two new
        faces rewritten."""
        table = {}
        for face in self._faces:
            _enter_sides(table, face)
        return table

    def _require_arc(self, d: Diagonal):
        """Raise NotInAngulation unless d is one of the diagonals: in O(1)
        from the twist table when the angulation holds one already (its
        keys run both ways along exactly the diagonals), by one scan of
        the diagonals otherwise."""
        table = self.__dict__.get("_sides")
        if type(d) is not Diagonal:
            # a plain tuple equals the diagonal of its endpoints but is not one
            found = False
        elif table is None:
            found = d in self.arcs
        else:
            found = (d.b, d.a) in table
        if not found:
            raise NotInAngulation(f"{d} not in angulation")

    def _around(self, d: Diagonal) -> tuple[tuple[Face, int], tuple[Face, int]]:
        """The entries of the faces inside and outside d."""
        self._require_arc(d)
        self._require_valid()
        return self._sides[d.b, d.a], self._sides[d.a, d.b]

    def twist(self, d: Diagonal) -> Diagonal:
        """Clockwise-next chord splitting the merged region around d: it
        joins the vertex after a inside [a, b] to the vertex after b
        outside, as ``region_twist`` of the merged region does."""
        (inner, i), (outer, j) = self._around(d)
        return Diagonal(
            inner.vertices[(i + 2) % len(inner.vertices)],
            outer.vertices[(j + 2) % len(outer.vertices)],
        )

    @once_per_arc
    def flip(self, d: Diagonal) -> "DiskAngulation":
        """Replace d by its twist; the result is checked against this
        angulation in O(r)."""
        new = self.twist(d)
        out = self._flipped(d, new)
        out.__dict__["_problems"] = out._flip_problems(new)
        return out

    def _flipped(self, d: Diagonal, new: Diagonal) -> "DiskAngulation":
        """d replaced by its twist ``new``, with no validity set.

        Only the two faces beside d change: the twist splits their union
        the other way.  The result takes the other faces and the twist
        table over, with the entries of the two new faces rewritten.
        """
        (inner, i), (outer, j) = self._sides[d.b, d.a], self._sides[d.a, d.b]
        # the merged region runs a, v1, ..., b inside and b, w1, ..., a
        # outside; the twist (v1, w1) splits it into two (m+2)-gons
        in_verts = inner.vertices[i + 1:] + inner.vertices[: i + 1]
        in_sides = inner.sides[i + 1:] + inner.sides[:i]
        out_verts = outer.vertices[j + 1:] + outer.vertices[: j + 1]
        out_sides = outer.sides[j + 1:] + outer.sides[:j]
        halves = (
            Face(in_verts[1:] + out_verts[1:2], in_sides[1:] + out_sides[:1] + (new,)),
            Face(out_verts[1:] + in_verts[1:2], out_sides[1:] + in_sides[:1] + (new,)),
        )
        out = DiskAngulation(self.config, [e for e in self.arcs if e != d] + [new])
        table = dict(self._sides)
        del table[d.a, d.b], table[d.b, d.a]
        for face in halves:
            _enter_sides(table, face)
        kept = tuple(f for f in self._faces if f is not inner and f is not outer)
        # fills the cached properties
        out.__dict__.update(_faces=kept + halves, _sides=table)
        return out

    @staticmethod
    def _completions(
        cfg: DiskConfig, partial: Sequence[Diagonal], removed: Diagonal
    ) -> list[Diagonal]:
        """``completions`` without the input check: ``partial`` and
        ``removed`` must form an angulation.  The partial set is split
        afresh."""
        cycle = list(range(1, cfg.sides + 1))
        big = [r for r in split_regions(cycle, partial) if len(r) == 2 * cfg.m + 2]
        assert len(big) == 1, "an almost-complete angulation has one open region"
        region = tuple(big[0])
        out = []
        cur = removed
        for _ in range(cfg.m + 1):
            cur = region_twist(region, cur, cfg.m)
            out.append(cur)
        assert out[-1] == removed
        return out

    def quiver_of(self, order: Sequence[Diagonal] | None = None) -> ColoredQuiver:
        """Colored quiver with one vertex per diagonal, in canonical order
        or in ``order``, which lists each diagonal once: the canonical
        quiver, read from the faces once, relabelled."""
        return self._quiver if order is None else self._quiver_in(order)

    def _read_quiver(self) -> ColoredQuiver:
        self._require_valid()
        # without diagonals the quiver is empty: split no polygon for it
        return quiver_from_faces(
            self.config.m, len(self.arcs), {d: i for i, d in enumerate(self.arcs)},
            self._faces if self.arcs else (),
        )

    def to_json_dict(self) -> dict:
        return {
            "type": "disk",
            "m": self.config.m,
            "sides": self.config.sides,
            "diagonals": [[d.a, d.b] for d in self.arcs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiskAngulation":
        cfg = DiskConfig(json_int(data["m"], "m"), json_int(data["sides"], "sides"))
        return cls(cfg, [
            Diagonal(json_int(a, "diagonal endpoint"), json_int(b, "diagonal endpoint"))
            for a, b in data["diagonals"]
        ])


def region_twist(region: Sequence[int], d: Diagonal, m: int) -> Diagonal:
    """Twist of a chord inside a fixed (2m+2)-gon region cycle."""
    L = len(region)
    x = region.index(d.a)
    y = region.index(d.b)
    if (y - x) % L not in (m + 1, L - (m + 1)):
        raise InvalidAngulation(f"{d} does not split the region {region}")
    return Diagonal(region[(x + 1) % L], region[(y + 1) % L])


def initial_fan(cfg: DiskConfig) -> DiskAngulation:
    """The angulation whose diagonals all meet vertex 1."""
    return DiskAngulation(
        cfg, [Diagonal(1, k * cfg.m + 2) for k in range(1, cfg.rank + 1)]
    )


def completions(
    cfg: DiskConfig, partial: Iterable[Diagonal], removed: Diagonal
) -> list[Diagonal]:
    """The m+1 diagonals completing an almost-complete angulation.

    ``partial`` holds the remaining r-1 diagonals.  The list walks the
    clockwise cycle starting from the removed diagonal's successor and ends
    with the removed diagonal itself.  The input is checked as the
    angulation it completes, and a fault is named as ``violations()``
    names it.
    """
    return DiskAngulation._completing(cfg, partial, removed)


@dataclass(frozen=True)
class DiskCut:
    """Result of cutting the polygon along the chord (a, b).

    Each piece labels its vertices 1..S_i clockwise: piece 1 runs from a
    to b, so its label i is global a + i - 1; piece 2 runs from b round
    to a, so its label i is global (b + i - 2) % S + 1.  Transported
    diagonals keep their crossing relations.
    """

    config: DiskConfig
    chord: Diagonal
    piece1: DiskConfig
    piece2: DiskConfig

    def transport(self, e: Diagonal) -> tuple[int, Diagonal]:
        """Piece number (1 or 2) and local coordinates of a diagonal."""
        if e == self.chord:
            raise ValueError("the cut chord itself does not transport")
        if crosses(e, self.chord):
            raise ValueError(f"{e} crosses the cut chord")
        a, b = self.chord.a, self.chord.b
        if a <= e.a and e.b <= b:
            return 1, Diagonal(e.a - a + 1, e.b - a + 1)
        sides = self.config.sides
        return 2, Diagonal((e.a - b) % sides + 1, (e.b - b) % sides + 1)

    def pull_back(self, piece: int, e: Diagonal) -> Diagonal:
        """The global diagonal of a piece-local one: ``transport``
        inverted."""
        a, b = self.chord.a, self.chord.b
        if piece == 1:
            return Diagonal(e.a + a - 1, e.b + a - 1)
        sides = self.config.sides
        return Diagonal((b + e.a - 2) % sides + 1, (b + e.b - 2) % sides + 1)


def cut_along(cfg: DiskConfig, d: Diagonal) -> DiskCut:
    """Split the polygon at d into two smaller disk configurations."""
    if not cfg.is_m_diagonal(d):
        raise InvalidAngulation(f"{d} is not an m-diagonal")
    s1 = d.b - d.a + 1
    s2 = cfg.sides - (d.b - d.a) + 1
    return DiskCut(cfg, d, DiskConfig(cfg.m, s1), DiskConfig(cfg.m, s2))


def _check_guard(cfg: DiskConfig, guard: int):
    if cfg.rank > guard:
        raise GuardExceeded(
            f"rank {cfg.rank} exceeds the enumeration guard {guard}"
        )


def _bits(mask: int):
    """Indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_angulations(
    cfg: DiskConfig, guard: int = DEFAULT_GUARD, collect: bool = False
):
    """Count (and optionally list) all angulations by backtracking.

    Entirely independent of the flip machinery: extends noncrossing sets
    over the canonically ordered diagonal list.  ``blocked`` holds the
    diagonals crossing the chosen ones, so a candidate is compatible with
    the chosen set when its bit is clear.
    """
    _check_guard(cfg, guard)
    diagonals, cross_mask = cfg.crossing_table
    rank = cfg.rank
    full = (1 << len(diagonals)) - 1
    found: list[DiskAngulation] = []
    count = 0

    def backtrack(start, chosen, blocked):
        nonlocal count
        if len(chosen) == rank:
            count += 1
            if collect:
                found.append(DiskAngulation(cfg, [diagonals[i] for i in chosen]))
            return
        free = full & ~blocked & ~((1 << start) - 1)
        # not enough candidates left to finish
        if len(chosen) + free.bit_count() < rank:
            return
        for idx in _bits(free):
            chosen.append(idx)
            backtrack(idx + 1, chosen, blocked | cross_mask[idx])
            chosen.pop()

    backtrack(0, [], 0)
    return (count, found) if collect else (count, None)


def maximal_set_sizes(cfg: DiskConfig, guard: int = DEFAULT_GUARD) -> dict[int, int]:
    """Histogram {size: count} over all maximal noncrossing diagonal sets.

    A set is maximal when no m-diagonal whatsoever is compatible with it;
    on the disk every maximal set has exactly ``rank`` elements, which the
    verification suite asserts against this histogram.
    """
    _check_guard(cfg, guard)
    diagonals, cross_mask = cfg.crossing_table
    full = (1 << len(diagonals)) - 1
    sizes: dict[int, int] = {}

    def backtrack(start, chosen, blocked, size):
        free = full & ~blocked & ~chosen
        # a maximal set is reached exactly once, along its sorted chain
        if not free:
            sizes[size] = sizes.get(size, 0) + 1
            return
        for idx in _bits(free >> start << start):
            backtrack(idx + 1, chosen | 1 << idx, blocked | cross_mask[idx], size + 1)

    backtrack(0, 0, 0, 0)
    return sizes


@dataclass(frozen=True)
class FlipGraph:
    """Flip graph on all angulations of one configuration."""

    nodes: tuple[DiskAngulation, ...]
    edges: frozenset[frozenset[int]]

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        adj = {i: set() for i in range(len(self.nodes))}
        for e in self.edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.nodes)

    def to_dot(self) -> str:
        lines = ["graph flips {"]
        for i, node in enumerate(self.nodes):
            lines.append(f'  {i} [label="{node!r}"];')
        for e in sorted(tuple(sorted(e)) for e in self.edges):
            lines.append(f"  {e[0]} -- {e[1]};")
        lines.append("}")
        return "\n".join(lines)


def flip_graph(cfg: DiskConfig, guard: int = DEFAULT_GUARD) -> FlipGraph:
    """BFS over flips starting from the initial fan.

    A child is keyed by the bitmask of its diagonal ids, known from the
    twist alone, so only an angulation not seen before is built by a flip.
    """
    _check_guard(cfg, guard)
    bit = {d: 1 << i for i, d in enumerate(cfg.crossing_table[0])}
    start = initial_fan(cfg)
    key = sum(bit[d] for d in start.arcs)
    index = {key: 0}
    order = [start]
    edges = set()
    queue = [(start, key)]
    while queue:
        node, key = queue.pop()
        i = index[key]
        for d in node.arcs:
            child = key ^ bit[d] ^ bit[node.twist(d)]
            j = index.get(child)
            if j is None:
                j = index[child] = len(order)
                other = node.flip(d)
                order.append(other)
                queue.append((other, child))
            if j != i:
                edges.add(frozenset((i, j)))
    return FlipGraph(tuple(order), frozenset(edges))
