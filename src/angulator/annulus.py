"""Annulus model: arc systems between an mp-gon and an inner mq-gon.

Arcs come in three kinds: bridges joining the two boundaries (their
homotopy class is an integer winding), outer chords hugging the outer
boundary, and inner chords hugging the inner one.  Crossing of bridges is
decided in the universal cover, a strip with outer vertex O_a lifted to
abscissa a/(mp) on the top line and inner vertex I_b with winding w to
b/(mq) + w on the bottom line; the deck translation is +1.

Faces, flips, completions and quivers are all computed by cutting the
annulus open along a bridge, which turns an angulation into one of a disk
with m(p+q)+2 sides, and mapping the disk machinery back.

Model limitation: for m = 1 an angulation can be completable only by an
arc with both endpoints on one boundary that encloses the other boundary.
Such arcs are outside the three-kind model, so the flip at such a position
raises UnsupportedFlip instead of leaving the model.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .disk import (
    Angulation,
    Diagonal,
    DiskAngulation,
    DiskConfig,
    Edge,
    InvalidAngulation,
    NotInAngulation,
    once_per_arc,
)
from .faces import Face, quiver_from_faces
from .quiver import ColoredQuiver, json_int


class UnsupportedFlip(ValueError):
    """The flip target encloses a boundary and is outside the arc model."""


class _Arc(tuple):
    """An annulus arc: the tuple (kind tag, *fields), with tag 0 for a
    bridge, 1 for an outer chord and 2 for an inner chord.  Its hash,
    equality and order are the tuple's and run in C: arcs of two kinds
    never compare equal, and arcs sort bridges first, then outer chords,
    then inner chords, each kind by its fields.  The constructor, the
    field names, ``_make`` and ``_replace`` take the fields alone."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __getnewargs__(self):
        # copy and pickle rebuild the arc from its fields, through __new__
        return self[1:]

    @classmethod
    def _make(cls, fields: Iterable[int]):
        return cls(*fields)

    def _replace(self, **changes):
        out = self._make(map(changes.pop, self._fields, self[1:]))
        if changes:
            raise TypeError(f"unexpected field names {list(changes)}")
        return out

    __replace__ = _replace  # copy.replace, from Python 3.13


class Bridge(_Arc):
    """Arc from outer vertex O_outer to inner vertex I_inner, winding w:
    the tuple (0, outer, inner, winding)."""

    __slots__ = ()
    __match_args__ = _fields = ("outer", "inner", "winding")
    outer = property(itemgetter(1))
    inner = property(itemgetter(2))
    winding = property(itemgetter(3))

    def __new__(cls, outer: int, inner: int, winding: int):
        return tuple.__new__(cls, (0, outer, inner, winding))

    def __repr__(self):
        return f"B(O{self.outer},I{self.inner},{self.winding})"


class OuterChord(_Arc):
    """Arc from O_start to O_{start+span} cutting off a disk at the outer
    rim: the tuple (1, start, span)."""

    __slots__ = ()
    __match_args__ = _fields = ("start", "span")
    start = property(itemgetter(1))
    span = property(itemgetter(2))

    def __new__(cls, start: int, span: int):
        return tuple.__new__(cls, (1, start, span))

    def __repr__(self):
        return f"OC(O{self.start},{self.span})"


class InnerChord(_Arc):
    """Arc from I_start to I_{start+span} cutting off a disk at the inner
    rim: the tuple (2, start, span)."""

    __slots__ = ()
    __match_args__ = _fields = ("start", "span")
    start = property(itemgetter(1))
    span = property(itemgetter(2))

    def __new__(cls, start: int, span: int):
        return tuple.__new__(cls, (2, start, span))

    def __repr__(self):
        return f"IC(I{self.start},{self.span})"


ArcClass = Bridge | OuterChord | InnerChord

# The JSON kind of each arc class, and the class of each kind.  An arc's
# JSON fields are its fields, in order.
JSON_KIND = {Bridge: "bridge", OuterChord: "outer_chord", InnerChord: "inner_chord"}
_KIND_CLASS = {kind: cls for cls, kind in JSON_KIND.items()}


@dataclass(frozen=True)
class BoundaryEdge:
    """Boundary edge of the annulus from vertex ``index`` to ``index + 1``."""

    boundary: str  # "outer" | "inner"
    index: int


@dataclass(frozen=True)
class AnnulusConfig:
    """Annulus size data: mp outer and mq inner marked vertices."""

    m: int
    p: int
    q: int

    def __post_init__(self):
        if self.m < 1 or self.p < 1 or self.q < 1:
            raise ValueError("m, p, q must all be >= 1")

    @property
    def outer_len(self) -> int:
        return self.m * self.p

    @property
    def inner_len(self) -> int:
        return self.m * self.q

    @property
    def rank(self) -> int:
        return self.p + self.q

    def is_m_diagonal(self, arc: ArcClass) -> bool:
        m = self.m
        if type(arc) is Bridge:
            _, outer, inner, _ = arc
            if not (1 <= outer <= self.outer_len):
                raise IndexError(f"outer vertex {outer} out of range")
            if not (1 <= inner <= self.inner_len):
                raise IndexError(f"inner vertex {inner} out of range")
            return True
        _, start, span = arc
        length = self.outer_len if type(arc) is OuterChord else self.inner_len
        if not (1 <= start <= length):
            raise IndexError(f"chord start {start} out of range")
        return span % m == 1 % m and m + 1 <= span <= length - 1

    def crosses(self, x: ArcClass, y: ArcClass) -> bool:
        """The module function ``crosses``, looked up at each call."""
        return crosses(self, x, y)

    def is_m_ear(self, arc: ArcClass) -> bool:
        """True iff the arc is a chord cutting off a single (m+2)-gon."""
        return not isinstance(arc, Bridge) and arc.span == self.m + 1

    def rebase(self, arc: ArcClass, shift: int) -> ArcClass:
        """Add a common winding shift (a power of the deck twist)."""
        if isinstance(arc, Bridge):
            return Bridge(arc.outer, arc.inner, arc.winding + shift)
        return arc


def crosses(cfg: AnnulusConfig, x: ArcClass, y: ArcClass) -> bool:
    """True iff the minimal representatives of the two arcs intersect;
    an arc never crosses itself.

    The hot predicate of the maximal-set and cut suites: each arc's type
    is read once, its fields by index, and a bridge pair is decided inline
    in integers.  The strip abscissas are scaled by mp * mq: O_a lifts to
    a * mq, I_b with winding w to (b + w * mq) * mp, and the deck step is
    mp * mq.  Two bridges cross iff a deck multiple lies strictly between
    the differences of their top and of their bottom abscissas.
    """
    tx, ty = type(x), type(y)
    if tx is Bridge:
        if ty is Bridge:
            outer_len, inner_len = cfg.m * cfg.p, cfg.m * cfg.q
            # a bridge is (0, outer, inner, winding)
            dt = (x[1] - y[1]) * inner_len
            db = (x[2] - y[2] + (x[3] - y[3]) * inner_len) * outer_len
            per = outer_len * inner_len
            if dt < db:
                return (db - 1) // per > dt // per
            return (dt - 1) // per > db // per
        x, y, tx, ty = y, x, ty, tx
    # x is now a chord, (tag, start, span)
    _, start, span = x
    if tx is OuterChord:
        length = cfg.m * cfg.p
        if ty is Bridge:
            return 0 < (y[1] - start) % length < span
    else:
        length = cfg.m * cfg.q
        if ty is Bridge:
            return 0 < (y[2] - start) % length < span
    if tx is not ty:
        return False
    # chords hugging one boundary: strict interleaving of cover intervals
    a1, b1 = start, start + span
    base = start + (y[1] - start) % length
    for a2 in (base - length, base, base + length):
        b2 = a2 + y[2]
        if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
            return True
    return False


class AnnulusAngulation(Angulation):
    """A set of p+q pairwise noncrossing arcs cutting into (m+2)-gons."""

    __slots__ = ()

    def __repr__(self):
        return "{" + ", ".join(map(repr, self.arcs)) + "}"

    def bridges(self) -> list[Bridge]:
        return [a for a in self.arcs if type(a) is Bridge]

    def _more_problems(self, found: list[str]) -> tuple[str, ...]:
        if not self.bridges():
            found.append("no bridge present")
        return tuple(found) or self._cell_problems()

    def _cell_problems(self) -> tuple[str, ...]:
        """The cell rule, read once the arcs are noncrossing, p+q in number
        and hold a bridge: the arcs whose diagonal is no m-diagonal of the
        cut along the least bridge.  A set without them keeps the cut as
        its first view.

        The cut disk has N = m(p+q)+2 sides, N = 2 (mod m), and its cells
        all have size 2 (mod m) iff every chord is an m-diagonal, a chord
        cutting it into two pieces of size 2 (mod m).  Congruences here are
        mod m.  If every cell has size 2, a piece of c cells glued along
        c - 1 chords has size 2c - 2(c - 1) = 2.  If every chord is an
        m-diagonal, a cell with vertices v1 < ... < vk has vk - v1 = 1 (its
        closing side is a chord or the edge from N to 1), a sum of k - 1
        steps of 1 each, so k = 2.  As the sizes of the p+q cells add up to
        (m+2)(p+q), that makes every cell an (m+2)-gon.  For m = 1 the
        p+q-1 diagonals triangulate the cut disk whatever they are, so the
        rule is not read.
        """
        if self.config.m == 1:
            return ()
        ref = self.bridges()[0]
        view = self._cut_open(ref)
        bad = tuple(
            f"{a} is not an m-diagonal of the cut along {ref}"
            for a, d in view.diagonal.items() if not view.cut.disk.is_m_diagonal(d)
        )
        if not bad:
            self._views[ref] = view
        return bad

    def violations(self) -> list[str]:
        return list(self._problems)

    def rebased(self) -> "AnnulusAngulation":
        """The equivalent angulation with minimum bridge winding zero."""
        cfg = self.config
        bridges = self.bridges()
        if not bridges:
            raise InvalidAngulation("no bridge present")
        shift = -min(b.winding for b in bridges)
        return AnnulusAngulation(cfg, [cfg.rebase(a, shift) for a in self.arcs])

    @cached_property
    def _views(self) -> dict[Bridge, "CutView"]:
        return {}

    def _cut_open(self, ref: Bridge) -> "CutView":
        """The angulation cut open along its bridge ``ref``.  The disk
        angulation is marked valid, as (m+2)-gon cells stay (m+2)-gons in
        every cut: a caller keeps the view of a valid annulus only."""
        cut = BridgeCut(self.config, ref)
        diagonal = {a: cut.to_disk(a) for a in self.arcs if a != ref}
        disk = DiskAngulation(cut.disk, diagonal.values())
        disk.__dict__["_problems"] = ()
        return CutView(cut, diagonal, disk)

    def _view(self, ref: Bridge) -> "CutView":
        """The angulation cut open along ``ref``, built once per bridge."""
        view = self._views.get(ref)
        if view is None:
            self._require_valid()
            view = self._views[ref] = self._cut_open(ref)
        return view

    def _held_view(self, avoid: ArcClass | None = None) -> "CutView":
        """A view this angulation holds already, inherited or built, whose
        bridge is not ``avoid``; failing that, the view along the least
        bridge other than ``avoid``."""
        self._require_valid()
        for ref, view in self._views.items():
            if ref != avoid:
                return view
        # a valid angulation has two bridges at least
        return self._view(next(b for b in self.bridges() if b != avoid))

    def faces(self, ref: Bridge | None = None) -> list[Face]:
        """The p+q cells: the disk faces of a cut along a bridge of the
        angulation (``ref``, or one it holds a cut along already), mapped
        back; the result does not depend on the bridge chosen."""
        self._require_valid()
        if ref is not None and (type(ref) is not Bridge or ref not in self.bridges()):
            raise NotInAngulation(f"{ref} is not a bridge of the angulation")
        view = self._held_view() if ref is None else self._view(ref)
        return [view.cut.face_back(f) for f in view.disk.faces()]

    def _require_arc(self, x: ArcClass):
        """Raise NotInAngulation unless x is one of the arcs: at once for
        an object of no arc class, as a plain tuple equals the arc of its
        numbers but is not one; in O(1) from a cut view the angulation
        holds already (its diagonal map holds every arc but the cut
        bridge); by one scan of the arcs otherwise."""
        views = self.__dict__.get("_views")
        if type(x) not in JSON_KIND:
            found = False
        elif views:
            view = next(iter(views.values()))
            found = x in view.diagonal or x == view.cut.bridge
        else:
            found = x in self.arcs
        if not found:
            raise NotInAngulation(f"{x} not in angulation")

    @once_per_arc
    def _twisted(self, x: ArcClass) -> tuple["CutView", Diagonal, Diagonal]:
        """The view a flip at x works in, along a bridge other than x and
        one the angulation holds if it can; x's diagonal there; and the
        twist of that diagonal.  ``can_flip``, ``twist`` and ``flip`` share
        it."""
        view = self._held_view(x)
        d = view.diagonal[x]
        return view, d, view.disk.twist(d)

    def twist(self, x: ArcClass) -> ArcClass:
        """The arc that flip(x) puts in x's place, read from a held cut
        view without building the flipped angulation; raises
        UnsupportedFlip where the flip does."""
        view, _, new_diagonal = self._twisted(x)
        return view.cut.from_disk(new_diagonal)

    @once_per_arc
    def flip(self, x: ArcClass) -> "AnnulusAngulation":
        """Replace x by its twist, the clockwise-next arc completing the
        rest.

        The cut the twist is read in stays a cut of the result, which
        takes it over with the flipped disk angulation, and the result is
        checked against this angulation in O(r).
        """
        view, d, new_diagonal = self._twisted(x)
        new = view.cut.from_disk(new_diagonal)
        out = AnnulusAngulation(self.config, [a for a in self.arcs if a != x] + [new])
        diagonal = {a: e for a, e in view.diagonal.items() if a != x}
        diagonal[new] = new_diagonal
        flipped = view.disk._flipped(d, new_diagonal)
        out._views[view.cut.bridge] = CutView(view.cut, diagonal, flipped)
        # the cell rule, read in the cut the flip worked in: its bridge
        # stays; a fresh object names the cut along its least bridge
        problems = out._flip_problems(new)
        if not problems and not view.cut.disk.is_m_diagonal(new_diagonal):
            problems = (f"{new} is not an m-diagonal of the cut along {view.cut.bridge}",)
        out.__dict__["_problems"] = problems
        if not problems:
            # the view's disk takes its validity from the annulus
            flipped.__dict__["_problems"] = ()
        return out

    def can_flip(self, x: ArcClass) -> bool:
        """False iff flip(x) raises UnsupportedFlip, decided without
        building the flipped angulation."""
        # In a cut disk of S = m(p+q)+2 sides, the loop arcs are the
        # diagonals (1, mp+1) and (mp+2, S), of lengths mp and mq.  A twist
        # is an m-diagonal, of length 1 (mod m); for m >= 2 neither length
        # is, so no flip leaves the model and no cut is needed to say so.
        if self.config.m >= 2:
            self._require_arc(x)
            return True
        view, _, new_diagonal = self._twisted(x)
        return not view.cut.encloses(new_diagonal)

    @staticmethod
    def _completions(
        cfg: AnnulusConfig, partial: Sequence[ArcClass], removed: ArcClass
    ) -> list[ArcClass]:
        """``completions`` without the input check: ``partial``, in
        canonical order, and ``removed`` must form an angulation.  Cut
        along the least bridge of ``partial`` (it holds one at least) and
        split afresh by the disk's ``_completions``."""
        ref = next(b for b in partial if isinstance(b, Bridge))
        cut = BridgeCut(cfg, ref)
        disk_partial = [cut.to_disk(a) for a in partial if a != ref]
        return [cut.from_disk(d) for d in DiskAngulation._completions(
            cut.disk, disk_partial, cut.to_disk(removed))]

    def quiver_of(self, order: Sequence[ArcClass] | None = None) -> ColoredQuiver:
        """Colored quiver with one vertex per arc, in canonical order or in
        ``order``, which lists each arc once: the canonical quiver, read
        from the faces once, relabelled.

        Two arcs bounding two distinct common faces contribute arrows from
        both faces, so multiplicities up to 2 occur.
        """
        return self._quiver if order is None else self._quiver_in(order)

    def _read_quiver(self) -> ColoredQuiver:
        # read from the held view's disk faces: each diagonal stands for
        # its arc, both copies of the cut bridge for the bridge
        view = self._held_view()
        cut = view.cut
        vertex = {}
        for i, a in enumerate(self.arcs):
            if a == cut.bridge:
                vertex.update(dict.fromkeys(cut.bridge_sides, i))
            else:
                vertex[view.diagonal[a]] = i
        return quiver_from_faces(self.config.m, len(self.arcs), vertex, view.disk.faces())

    def to_json_dict(self) -> dict:
        cfg = self.config
        arcs = [{"kind": JSON_KIND[type(a)], **dict(zip(a._fields, a[1:]))}
                for a in self.arcs]
        return {"type": "annulus", "m": cfg.m, "p": cfg.p, "q": cfg.q, "arcs": arcs}

    @classmethod
    def from_json_dict(cls, data: dict) -> "AnnulusAngulation":
        cfg = AnnulusConfig(*(json_int(data[f], f) for f in ("m", "p", "q")))
        arcs = []
        for a in data["arcs"]:
            kind = a["kind"]
            # a JSON list or object is no kind, and unhashable
            make = _KIND_CLASS.get(kind) if isinstance(kind, str) else None
            if make is None:
                raise ValueError(f"unknown arc kind {kind!r}")
            arcs.append(make(*(json_int(a[f], f) for f in make.__match_args__)))
        return cls(cfg, arcs)


def initial_bridges(cfg: AnnulusConfig) -> AnnulusAngulation:
    """The angulation of p+q bridges whose gaps alternate p runs of m
    outer edges with q runs of m inner edges."""
    arcs: list[ArcClass] = [Bridge(1 + k * cfg.m, 1, 1) for k in range(cfg.p)]
    arcs += [Bridge(1, 1 + j * cfg.m, 0) for j in range(cfg.q)]
    return AnnulusAngulation(cfg, arcs)


def completions(
    cfg: AnnulusConfig, partial: Iterable[ArcClass], removed: ArcClass
) -> list[ArcClass]:
    """The m+1 arcs completing an almost-complete angulation, in clockwise
    cycle order starting after ``removed`` and ending with it.  The input
    is checked as the angulation it completes, and a fault is named as
    ``violations()`` names it.
    """
    return AnnulusAngulation._completing(cfg, partial, removed)


class BridgeCut:
    """Cutting the annulus open along a bridge.

    The cut disk has m(p+q)+2 vertices labeled clockwise: 1..mp+1 run along
    the outer boundary from the bridge's outer endpoint back to its second
    copy; mp+2..m(p+q)+2 run back along the inner boundary.  Arcs that do
    not cross the bridge transport to disk diagonals and back.  The sizes
    and the bridge's fields are kept as plain ints, read by every
    transport.
    """

    def __init__(self, cfg: AnnulusConfig, bridge: Bridge):
        self.cfg = cfg
        self.bridge = bridge
        _, self._outer, self._inner, self._winding = bridge
        self.outer_len = outer_len = cfg.m * cfg.p
        self.inner_len = inner_len = cfg.m * cfg.q
        self.sides = outer_len + inner_len + 2
        self.disk = DiskConfig(cfg.m, self.sides)
        # the deck period and the cut strip's corners, the bridge's first
        # lift, in the scaled strip coordinates of ``crosses``: ``to_disk``
        # places a bridge by one shift of whole periods from these corners
        self._per = outer_len * inner_len
        self._top0 = self._outer * inner_len
        self._bot0 = (self._inner + self._winding * inner_len) * outer_len

    @property
    def bridge_sides(self) -> tuple[Edge, Edge]:
        """The two disk edges that are copies of the cut bridge."""
        top_max = self.outer_len + 1
        return Edge(top_max, top_max + 1), Edge(self.sides, 1)

    # -- vertex maps -------------------------------------------------------

    def outer_label(self, disk_vertex: int) -> int:
        """Outer boundary label of a top disk vertex (1..mp+1)."""
        return (self._outer + disk_vertex - 2) % self.outer_len + 1

    def inner_label(self, disk_vertex: int) -> int:
        """Inner boundary label of a bottom disk vertex (mp+2..S')."""
        offset = self.sides - disk_vertex
        return (self._inner + offset - 1) % self.inner_len + 1

    # -- arc transport -----------------------------------------------------

    def to_disk(self, arc: ArcClass) -> Diagonal:
        """Disk diagonal of an arc that does not cross the cut bridge."""
        if arc == self.bridge:
            raise ValueError("the cut bridge itself does not transport")
        if crosses(self.cfg, arc, self.bridge):
            raise ValueError(f"{arc} crosses the cut bridge")
        outer_len, inner_len = self.outer_len, self.inner_len
        kind = type(arc)
        if kind is Bridge:
            # dt, db: offsets of a lift from the cut strip's corners.  The
            # two checks above make one shift exact: a noncrossing arc has
            # no deck multiple strictly between dt and db, so one shift by
            # whole periods puts both in [0, per], and only the cut bridge
            # has both at 0
            _, outer, inner, winding = arc
            dt = outer * inner_len - self._top0
            db = (inner + winding * inner_len) * outer_len - self._bot0
            k = min(dt, db) // self._per * self._per
            return Diagonal(1 + (dt - k) // inner_len, self.sides - (db - k) // outer_len)
        _, start, span = arc
        if kind is OuterChord:
            offset = (start - self._outer) % outer_len
            assert offset + span <= outer_len
            return Diagonal(1 + offset, 1 + offset + span)
        offset = (start - self._inner) % inner_len
        assert offset + span <= inner_len
        return Diagonal(self.sides - offset - span, self.sides - offset)

    def encloses(self, diag: Diagonal) -> bool:
        """True iff diag joins the two copies of a cut endpoint: the loop
        arc it stands for encloses a boundary, outside the arc model."""
        top_max = self.outer_len + 1
        if diag.a == 1:
            return diag.b == top_max
        return diag.a == top_max + 1 and diag.b == self.sides

    def from_disk(self, diag: Diagonal) -> ArcClass:
        """Annulus arc of a disk diagonal; raises UnsupportedFlip for the
        two diagonals joining the copies of a cut endpoint (loop arcs)."""
        outer_len, inner_len = self.outer_len, self.inner_len
        top_max = outer_len + 1
        if diag.b <= top_max:
            if self.encloses(diag):
                raise UnsupportedFlip(
                    "arc would enclose the inner boundary (outside the model)"
                )
            return OuterChord(self.outer_label(diag.a), diag.b - diag.a)
        if diag.a >= top_max + 1:
            if self.encloses(diag):
                raise UnsupportedFlip(
                    "arc would enclose the outer boundary (outside the model)"
                )
            return InnerChord(self.inner_label(diag.b), diag.b - diag.a)
        # bridge: recover the winding from the lifts of its endpoints,
        # counted in vertex steps from the cut bridge's first lift
        top = self._outer + diag.a - 1
        bottom = self._inner + self._winding * inner_len + self.sides - diag.b
        outer = (top - 1) % outer_len + 1
        inner = (bottom - 1) % inner_len + 1
        return Bridge(outer, inner,
                      (bottom - inner) // inner_len - (top - outer) // outer_len)

    # -- face pullback -----------------------------------------------------

    def side_back(self, side) -> object:
        if isinstance(side, Diagonal):
            return self.from_disk(side)
        if side in self.bridge_sides:
            return self.bridge
        if side.v <= self.outer_len + 1:
            return BoundaryEdge("outer", self.outer_label(side.u))
        return BoundaryEdge("inner", self.inner_label(side.v))

    def vertex_back(self, disk_vertex: int) -> tuple[str, int]:
        if disk_vertex <= self.outer_len + 1:
            return ("O", self.outer_label(disk_vertex))
        return ("I", self.inner_label(disk_vertex))

    def face_back(self, face: Face) -> Face:
        return Face(
            tuple(self.vertex_back(v) for v in face.vertices),
            tuple(self.side_back(s) for s in face.sides),
        )


# An angulation cut open along one of its bridges: the BridgeCut, the disk
# diagonal of every other arc, and the disk angulation they form
CutView = namedtuple("CutView", "cut diagonal disk")


@dataclass(frozen=True)
class AnnulusChordCutResult:
    """Public cut result along a chord: a smaller annulus plus a disk."""

    config: AnnulusConfig
    chord: OuterChord | InnerChord
    annulus: AnnulusConfig
    disk: DiskConfig

    def transport(self, arc: ArcClass) -> tuple[str, ArcClass | Diagonal]:
        """('annulus', arc) or ('disk', diagonal) for a noncrossing arc."""
        cfg, ch = self.config, self.chord
        if arc == ch:
            raise ValueError("the cut chord itself does not transport")
        if crosses(cfg, arc, ch):
            raise ValueError(f"{arc} crosses the cut chord")
        outer_side = isinstance(ch, OuterChord)
        length = cfg.outer_len if outer_side else cfg.inner_len
        end = (ch.start + ch.span - 1) % length + 1

        def relabel(v: int) -> int:
            """New boundary label of a surviving vertex on the cut boundary."""
            return (v - end) % length + 1

        if isinstance(arc, Bridge):
            v = arc.outer if outer_side else arc.inner
            shift = 1 if v < end else 0
            if outer_side:
                return ("annulus", Bridge(relabel(v), arc.inner, arc.winding + shift))
            return ("annulus", Bridge(arc.outer, relabel(v), arc.winding - shift))
        same_side = type(arc) is type(ch)
        if not same_side:
            return ("annulus", arc)
        # chord on the cut boundary: inside the cut-off disk, or surviving
        off = (arc.start - ch.start) % length
        if off + arc.span <= ch.span:
            return ("disk", Diagonal(1 + off, 1 + off + arc.span))
        n_start = relabel(arc.start)
        n_end = relabel((arc.start + arc.span - 1) % length + 1)
        new_len = length - ch.span + 1
        n_span = (n_end - n_start) % new_len
        kind = OuterChord if outer_side else InnerChord
        return ("annulus", kind(n_start, n_span))


def cut_along(cfg: AnnulusConfig, arc: ArcClass) -> BridgeCut | AnnulusChordCutResult:
    """Cut the annulus along an arc into smaller model surfaces."""
    if not cfg.is_m_diagonal(arc):
        raise InvalidAngulation(f"{arc} is not an m-diagonal")
    if isinstance(arc, Bridge):
        return BridgeCut(cfg, arc)
    if isinstance(arc, OuterChord):
        new_p = cfg.p - (arc.span - 1) // cfg.m
        smaller = AnnulusConfig(cfg.m, new_p, cfg.q)
    else:
        new_q = cfg.q - (arc.span - 1) // cfg.m
        smaller = AnnulusConfig(cfg.m, cfg.p, new_q)
    return AnnulusChordCutResult(
        cfg, arc, smaller, DiskConfig(cfg.m, arc.span + 1)
    )
