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

from .faces import (
    Cell,
    Face,
    Table,
    cell_size,
    cell_vertices,
    flip_cells,
    quiver_from_faces,
    split_regions,
    twist_ends,
)
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
        stay independent of the flip machinery.

        The index of a diagonal in the first list is its id.  The count
        oracles hand back an angulation as its key: the bitmask of its
        diagonal ids, bit i set iff ``crossing_table[0][i]`` is one of its
        diagonals.  ``DiskAngulation.from_key`` decodes a key."""
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
    this class builds ``_problems``: the entries of no arc class of the
    model (``_kinds``), then, among the others, the arcs that are no
    m-diagonals and the crossing pairs, then a wrong count, to which a
    model adds its own rules through ``_more_problems``.  A flip result's
    ``_problems`` is worked out by ``_flip_problems`` when it is built:
    the shared ones from its valid parent and the new arc alone, in O(r),
    then the model's rules through the same ``_more_problems``.

    Membership is one O(1) test for both models, ``_require_arc``: an arc
    is an object of an arc class in ``_arc_set``, the set the constructor
    sorts into ``arcs``.  A model class defines ``_read_quiver`` (its
    quiver in canonical order, read from its cells), ``_completions``
    (split afresh) and ``parse_json`` (its configuration and arcs from
    JSON, as listed), and ``violations``, ``twist``, ``flip``, ``faces`` and
    ``quiver_of`` in its own namespace, where the span tracer of
    ``perfbench`` finds them.
    The module functions ``completions`` check their input as the
    angulation it completes, through ``_completing``.  A disk has no Dehn
    twist, so only the annulus has ``rebased()``.
    """

    __slots__ = ("config", "arcs", "_arc_set", "__dict__")
    _noun = "arcs"  # what the count message calls the arcs
    _one = "an arc"  # and what a message calls one of them
    _kinds: tuple[type, ...]  # the arc classes of the model

    def __init__(self, config, arcs: Iterable):
        arc_set = frozenset(arcs)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "arcs", tuple(sorted(arc_set)))
        object.__setattr__(self, "_arc_set", arc_set)

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
        kinds = self._kinds
        # an entry of no arc class has no fields to check: it is named alone
        out = [f"{x} is not {self._one}" for x in self.arcs if type(x) not in kinds]
        out += arc_set_problems(cfg, [x for x in self.arcs if type(x) in kinds])
        if len(self.arcs) != cfg.rank:
            out.append(f"{len(self.arcs)} {self._noun}, expected {cfg.rank}")
        return self._more_problems(out)

    def _more_problems(self, found: list[str]) -> tuple[str, ...]:
        """``_problems`` from the shared ones ``found``, of a fresh object
        or a flip result; a model with rules of its own adds them here."""
        return tuple(found)

    def _flip_problems(self, new) -> tuple[str, ...]:
        """The ``_problems`` of a flip result whose parent was valid.  Of
        the shared ones, only the new arc can be at fault, by not being an
        m-diagonal, by crossing another arc, or by duplicating one, which
        leaves one arc too few; the model's rules follow through
        ``_more_problems``.  The messages and their order are those of a
        fresh object."""
        cfg = self.config
        out = [] if cfg.is_m_diagonal(new) else [f"{new} is not an m-diagonal"]
        # the r - 1 others (new itself is skipped), each pair in canonical order
        for x in self.arcs:
            if x is not new and cfg.crosses(x, new):
                a, b = sorted((x, new))
                out.append(f"{a} crosses {b}")
        if len(self.arcs) != cfg.rank:
            out.append(f"{len(self.arcs)} {self._noun}, expected {cfg.rank}")
        return self._more_problems(out)

    def is_valid(self) -> bool:
        return not self._problems

    def _require_valid(self):
        if self._problems:
            raise InvalidAngulation("; ".join(self._problems))

    def _require_arc(self, x):
        """Raise NotInAngulation unless x is one of the arcs, in O(1).  An
        object of no arc class is refused before the set is asked, as a
        plain tuple equals the arc of its numbers but is not one, and a
        list is unhashable."""
        if type(x) not in self._kinds or x not in self._arc_set:
            raise NotInAngulation(f"{x} not in angulation")

    @classmethod
    def from_json_dict(cls, data: dict):
        """The angulation of a ``to_json_dict`` record.  The model's
        ``parse_json`` reads its configuration and its arcs as listed,
        with every field checked; an arc listed twice is kept once."""
        return cls(*cls.parse_json(data))

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
        """quiver_of() in canonical order, read from the cells once."""
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


class DiskAngulation(Angulation):
    """A maximal noncrossing set of m-diagonals, canonically sorted."""

    __slots__ = ()
    _noun = "diagonals"
    _one = "a diagonal"
    _kinds = (Diagonal,)

    def __repr__(self):
        return "".join(map(repr, self.arcs)) or "(empty)"

    @classmethod
    def from_key(cls, cfg: DiskConfig, key: int) -> "DiskAngulation":
        """The angulation of a key of ``cfg.crossing_table``: the diagonal
        of each set bit, checked as any fresh angulation is."""
        diagonals = cfg.crossing_table[0]
        return cls(cfg, [diagonals[n] for n in _bits(key)])

    def violations(self) -> list[str]:
        return list(self._problems)

    @property
    def _faces(self) -> tuple[Cell, ...]:
        """The r+1 cells as arc runs (see ``faces``), read back from the
        twist table: each cell once, from the entry of its first run.
        Without diagonals the table is empty and the one cell is empty."""
        return tuple(cell for cell, i in self._sides.values() if not i) or ((),)

    def faces(self) -> list[Face]:
        """The r+1 cells, each an (m+2)-gon with sides in clockwise order:
        the cells read back from the twist table, expanded on each call
        into their vertices, ``Diagonal`` sides and boundary ``Edge``
        sides.  The list order and each cell's first vertex are not fixed."""
        self._require_valid()
        S = self.config.sides
        out = []
        for cell in self._faces:
            cycle = cell_vertices(S, cell)
            sides = [
                Edge(u, v) if v == u % S + 1 else Diagonal(u, v)
                for u, v in zip(cycle, cycle[1:] + cycle[:1])
            ]
            out.append(Face(tuple(cycle), tuple(sides)))
        return out

    @cached_property
    def _sides(self) -> Table:
        """The cells, held once as the twist table that twists, flips and
        the quiver read; the arc set answers membership.  A cell runs a
        diagonal (a, b) clockwise: the cell inside [a, b] runs it as
        (b, a), the cell outside as (a, b).  The entry of a run (u, v) is
        the cell and the run's index there.  A flip sets its result's table
        (``flip_cells``) directly, so the public callers check validity."""
        cells = split_regions(self.config.sides, self.arcs)
        return {run: (cell, i) for cell in cells for i, run in enumerate(cell)}

    def twist(self, d: Diagonal) -> Diagonal:
        """Clockwise-next chord splitting the merged (2m+2)-gon around d:
        it joins the vertex after a inside [a, b] to the vertex after b
        outside, each end of d moved one place clockwise round the merged
        region (``twist_ends``)."""
        self._require_arc(d)
        self._require_valid()
        return Diagonal(*twist_ends(self.config.sides, self._sides, d))

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

        Only the two cells beside d change: ``flip_cells`` splits their
        union the other way.  The two new cells come from the old ones
        alone, so a wrong ``new`` gives a result whose arcs its check
        flags.  The result holds the twist table that ``flip_cells``
        rewrites, and no other cells.
        """
        out = DiskAngulation(self.config, [e for e in self.arcs if e != d] + [new])
        # fills the cached property
        out.__dict__["_sides"] = flip_cells(self.config.sides, self._sides, d)
        return out

    @staticmethod
    def _completions(
        cfg: DiskConfig, partial: Sequence[Diagonal], removed: Diagonal
    ) -> list[Diagonal]:
        """``completions`` without the input check: ``partial`` and
        ``removed`` must form an angulation.  The partial set is split
        afresh, and only its one open (2m+2)-gon is expanded.  Each twist
        moves both ends of the chord one place clockwise round that
        region, so the completions step both ends from where ``removed``
        has them; the last is ``removed`` again iff it is a diameter of the
        region."""
        S = cfg.sides
        big = [c for c in split_regions(S, partial) if cell_size(S, c) == 2 * cfg.m + 2]
        assert len(big) == 1, "an almost-complete angulation has one open region"
        region = cell_vertices(S, big[0])
        L = len(region)
        x, y = region.index(removed.a), region.index(removed.b)
        out = [Diagonal(region[(x + k) % L], region[(y + k) % L])
               for k in range(1, cfg.m + 2)]
        assert out[-1] == removed
        return out

    def quiver_of(self, order: Sequence[Diagonal] | None = None) -> ColoredQuiver:
        """Colored quiver with one vertex per diagonal, in canonical order
        or in ``order``, which lists each diagonal once: the canonical
        quiver, read from the cells once, relabelled."""
        return self._quiver if order is None else self._quiver_in(order)

    def _read_quiver(self) -> ColoredQuiver:
        self._require_valid()
        cfg = self.config
        return quiver_from_faces(
            cfg.m, len(self.arcs), cfg.sides, {d: i for i, d in enumerate(self.arcs)},
            {}, self._faces,
        )

    def to_json_dict(self) -> dict:
        return {
            "type": "disk",
            "m": self.config.m,
            "sides": self.config.sides,
            "diagonals": [[d.a, d.b] for d in self.arcs],
        }

    @classmethod
    def parse_json(cls, data: dict) -> tuple[DiskConfig, list[Diagonal]]:
        cfg = DiskConfig(json_int(data["m"], "m"), json_int(data["sides"], "sides"))
        return cfg, [
            Diagonal(json_int(a, "diagonal endpoint"), json_int(b, "diagonal endpoint"))
            for a, b in data["diagonals"]
        ]


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
    over the canonically ordered diagonal list.  ``key`` holds the ids of
    the chosen diagonals and ``blocked`` those of the diagonals crossing
    them, so a candidate is compatible with the chosen set when its bit
    is clear.  Returns ``(count, keys)``, where ``keys`` lists the key of
    each angulation (see ``DiskConfig.crossing_table``) in the order
    found if ``collect``, and is None otherwise; ``DiskAngulation.from_key``
    decodes one.
    """
    _check_guard(cfg, guard)
    diagonals, cross_mask = cfg.crossing_table
    rank = cfg.rank
    full = (1 << len(diagonals)) - 1
    found: list[int] = []
    count = 0

    def backtrack(start, key, size, blocked):
        nonlocal count
        if size == rank:
            count += 1
            if collect:
                found.append(key)
            return
        free = full & ~blocked & ~((1 << start) - 1)
        # not enough candidates left to finish
        if size + free.bit_count() < rank:
            return
        for idx in _bits(free):
            backtrack(idx + 1, key | 1 << idx, size + 1, blocked | cross_mask[idx])

    backtrack(0, 0, 0, 0)
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
    """Flip graph on all angulations of one configuration.  A node is the
    key of an angulation (see ``DiskConfig.crossing_table``), and an edge
    joins the indices of two nodes in ``nodes``;
    ``DiskAngulation.from_key(config, node)`` decodes a node."""

    config: DiskConfig
    nodes: tuple[int, ...]
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
        """The graph in DOT, each node labelled with its angulation."""
        lines = ["graph flips {"]
        for i, key in enumerate(self.nodes):
            lines.append(f'  {i} [label="{DiskAngulation.from_key(self.config, key)!r}"];')
        for e in sorted(tuple(sorted(e)) for e in self.edges):
            lines.append(f"  {e[0]} -- {e[1]};")
        lines.append("}")
        return "\n".join(lines)


def flip_graph(cfg: DiskConfig, guard: int = DEFAULT_GUARD) -> FlipGraph:
    """The flip graph, searched from the initial fan, the last node found
    first; the nodes are listed in the order they are found.

    A node is the key of its angulation, the bitmask of its diagonal ids
    in ``cfg.crossing_table``, held with the twist table its parent's flip
    left.  For each of its diagonals the twist is read from the table
    (``twist_ends``) and the child is checked in O(1) against the crossing
    table: the twist is an m-diagonal, is not already a diagonal of the
    node, and crosses none of the others.  Else InvalidAngulation is
    raised.  So every child is a noncrossing set of rank m-diagonals, an
    angulation.  Only a child not seen before gets cells, by one cell flip
    (``flip_cells``).  The graph holds the keys, and the only angulation
    built is the fan; ``DiskAngulation.from_key`` decodes a node.
    """
    _check_guard(cfg, guard)
    diagonals, cross_mask = cfg.crossing_table
    sides = cfg.sides
    # the twist comes as a pair of ends in either order
    ids = {}
    for n, (a, b) in enumerate(diagonals):
        ids[a, b] = ids[b, a] = n
    start = initial_fan(cfg)
    key = sum(1 << ids[d] for d in start.arcs)
    index = {key: 0}
    keys = [key]
    edges = set()
    queue = [(key, start._sides)]
    while queue:
        key, table = queue.pop()
        i = index[key]
        for n in _bits(key):
            d = diagonals[n]
            ends = twist_ends(sides, table, d)
            new = ids.get(ends)
            rest = key ^ 1 << n
            if new is None or key >> new & 1 or cross_mask[new] & rest:
                # the faults, named as the checks of DiskAngulation.flip name them
                twist = Diagonal(*ends)
                out = DiskAngulation(cfg, [*DiskAngulation.from_key(cfg, rest).arcs, twist])
                problems = out._flip_problems(twist) or (f"{twist} is the diagonal flipped",)
                raise InvalidAngulation(f"the flip at {d} gives {out!r}: " + "; ".join(problems))
            child = rest | 1 << new
            j = index.get(child)
            if j is None:
                j = index[child] = len(keys)
                keys.append(child)
                queue.append((child, flip_cells(sides, table, d)))
            edges.add(frozenset((i, j)))
    return FlipGraph(cfg, tuple(keys), frozenset(edges))
