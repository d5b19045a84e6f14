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

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .disk import (
    Diagonal,
    DiskAngulation,
    DiskConfig,
    InvalidAngulation,
    NotInAngulation,
)
from .faces import Face, quiver_from_faces
from .quiver import ColoredQuiver, json_int


class UnsupportedFlip(ValueError):
    """The flip target encloses a boundary and is outside the arc model."""


@dataclass(frozen=True)
class Bridge:
    """Arc from outer vertex O_outer to inner vertex I_inner, winding w."""

    outer: int
    inner: int
    winding: int

    def __repr__(self):
        return f"B(O{self.outer},I{self.inner},{self.winding})"


@dataclass(frozen=True)
class OuterChord:
    """Arc from O_start to O_{start+span} cutting off a disk at the outer rim."""

    start: int
    span: int

    def __repr__(self):
        return f"OC(O{self.start},{self.span})"


@dataclass(frozen=True)
class InnerChord:
    """Arc from I_start to I_{start+span} cutting off a disk at the inner rim."""

    start: int
    span: int

    def __repr__(self):
        return f"IC(I{self.start},{self.span})"


ArcClass = Bridge | OuterChord | InnerChord


def arc_sort_key(arc: ArcClass):
    """Canonical order: bridges by (outer, inner, winding), then chords."""
    if isinstance(arc, Bridge):
        return (0, arc.outer, arc.inner, arc.winding)
    if isinstance(arc, OuterChord):
        return (1, arc.start, arc.span)
    return (2, arc.start, arc.span)


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

    @property
    def period(self) -> int:
        """Deck translation step in the scaled strip coordinates."""
        return self.outer_len * self.inner_len

    def top(self, outer_index: int) -> int:
        """Scaled strip abscissa of an outer vertex lift."""
        return outer_index * self.inner_len

    def bottom(self, inner_index: int, winding: int) -> int:
        """Scaled strip abscissa of an inner vertex lift."""
        return (inner_index + winding * self.inner_len) * self.outer_len

    def is_m_diagonal(self, arc: ArcClass) -> bool:
        m = self.m
        if isinstance(arc, Bridge):
            if not (1 <= arc.outer <= self.outer_len):
                raise IndexError(f"outer vertex {arc.outer} out of range")
            if not (1 <= arc.inner <= self.inner_len):
                raise IndexError(f"inner vertex {arc.inner} out of range")
            return True
        length = self.outer_len if isinstance(arc, OuterChord) else self.inner_len
        if not (1 <= arc.start <= length):
            raise IndexError(f"chord start {arc.start} out of range")
        return arc.span % m == 1 % m and m + 1 <= arc.span <= length - 1

    def rebase(self, arc: ArcClass, shift: int) -> ArcClass:
        """Add a common winding shift (a power of the deck twist)."""
        if isinstance(arc, Bridge):
            return Bridge(arc.outer, arc.inner, arc.winding + shift)
        return arc


def _strictly_inside(v: int, start: int, span: int, length: int) -> bool:
    return 0 < (v - start) % length < span


def bridge_crossings(cfg: AnnulusConfig, x: Bridge, y: Bridge) -> int:
    """Minimal number of interior intersections of two bridges.

    Straight lifts of y properly cross a fixed lift of x once for every
    deck multiple strictly between the top and bottom abscissa differences
    (the scaled ``top``/``bottom`` lifts; equal bridges give 0).
    """
    outer_len, inner_len = cfg.m * cfg.p, cfg.m * cfg.q
    dt = (x.outer - y.outer) * inner_len
    db = (x.inner - y.inner + (x.winding - y.winding) * inner_len) * outer_len
    lo, hi = (dt, db) if dt < db else (db, dt)
    per = outer_len * inner_len
    # integers n with lo < n * per < hi
    return max(0, (hi - 1) // per - lo // per)


def crosses(cfg: AnnulusConfig, x: ArcClass, y: ArcClass) -> bool:
    """True iff the minimal representatives of the two arcs intersect;
    an arc never crosses itself."""
    if isinstance(x, Bridge) and isinstance(y, Bridge):
        return bridge_crossings(cfg, x, y) > 0
    if isinstance(x, Bridge):
        x, y = y, x
    # x is now a chord
    length = cfg.m * (cfg.p if isinstance(x, OuterChord) else cfg.q)
    if isinstance(y, Bridge):
        v = y.outer if isinstance(x, OuterChord) else y.inner
        return _strictly_inside(v, x.start, x.span, length)
    if type(x) is not type(y):
        return False
    # chords hugging one boundary: strict interleaving of cover intervals
    a1, b1 = x.start, x.start + x.span
    base = x.start + (y.start - x.start) % length
    for a2 in (base - length, base, base + length):
        b2 = a2 + y.span
        if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
            return True
    return False


class AnnulusAngulation:
    """A set of p+q pairwise noncrossing arcs cutting into (m+2)-gons."""

    __slots__ = ("config", "arcs", "__dict__")

    def __init__(self, config: AnnulusConfig, arcs: Iterable[ArcClass]):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "arcs", tuple(sorted(set(arcs), key=arc_sort_key)))

    def __setattr__(self, *_):
        raise AttributeError("AnnulusAngulation is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, AnnulusAngulation)
            and self.config == other.config
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.config, self.arcs))

    def __repr__(self):
        return "{" + ", ".join(map(repr, self.arcs)) + "}"

    def bridges(self) -> list[Bridge]:
        return [a for a in self.arcs if isinstance(a, Bridge)]

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        # the object is immutable, so it is checked at most once
        out = []
        for a in self.arcs:
            if not self.config.is_m_diagonal(a):
                out.append(f"{a} is not an m-diagonal")
        for a, b in itertools.combinations(self.arcs, 2):
            if crosses(self.config, a, b):
                out.append(f"{a} crosses {b}")
        if len(self.arcs) != self.config.rank:
            out.append(f"{len(self.arcs)} arcs, expected {self.config.rank}")
        if not self.bridges():
            out.append("no bridge present")
        return tuple(out)

    def violations(self) -> list[str]:
        return list(self._problems)

    def is_valid(self) -> bool:
        return not self._problems

    def _require_valid(self):
        if self._problems:
            raise InvalidAngulation("; ".join(self._problems))

    def rebased(self) -> "AnnulusAngulation":
        """Equivalent angulation with minimum bridge winding zero: itself
        when it is one already, so that what it has cached is kept."""
        shift = -min(b.winding for b in self.bridges())
        if shift == 0:
            return self
        return AnnulusAngulation(
            self.config, [self.config.rebase(a, shift) for a in self.arcs]
        )

    @cached_property
    def _views(self) -> dict[Bridge, "CutView"]:
        return {}

    def _view(self, ref: Bridge) -> "CutView":
        """The angulation cut open along ``ref``, built once per bridge."""
        view = self._views.get(ref)
        if view is None:
            self._require_valid()
            cut = BridgeCut(self.config, ref)
            diagonal = {a: cut.to_disk(a) for a in self.arcs if a != ref}
            view = CutView(cut, diagonal, DiskAngulation(cut.disk, diagonal.values()))
            self._views[ref] = view
        return view

    def faces(self, ref: Bridge | None = None) -> list[Face]:
        """The p+q cells, computed by cutting open along a bridge of the
        angulation; the result does not depend on the bridge chosen."""
        self._require_valid()
        bridges = self.bridges()
        if ref is None:
            ref = bridges[0]
        elif ref not in bridges:
            raise NotInAngulation(f"{ref} is not a bridge of the angulation")
        return list(self._view(ref).faces)

    def _flip_view(self, x: ArcClass) -> "CutView":
        """The view flip(x) works in: cut along the least other bridge."""
        if x not in self.arcs:
            raise NotInAngulation(f"{x} not in angulation")
        self._require_valid()
        others = [b for b in self.bridges() if b != x]
        if not others:
            raise InvalidAngulation("no bridge left to cut along")
        return self._view(others[0])

    def flip(self, x: ArcClass) -> "AnnulusAngulation":
        """Replace x by the clockwise-next arc completing the rest.

        The cut the flip works in stays a cut of the result, which takes
        it over with the flipped disk angulation.
        """
        view = self._flip_view(x)
        d = view.diagonal[x]
        new_diag = view.disk.twist(d)
        new = view.cut.from_disk(new_diag)
        out = AnnulusAngulation(self.config, [a for a in self.arcs if a != x] + [new])
        diagonal = {a: e for a, e in view.diagonal.items() if a != x}
        diagonal[new] = new_diag
        out._views[view.cut.bridge] = CutView(view.cut, diagonal, view.disk.flip(d))
        return out

    def can_flip(self, x: ArcClass) -> bool:
        """False iff flip(x) raises UnsupportedFlip, decided without
        building the flipped angulation."""
        view = self._flip_view(x)
        return not view.cut.encloses(view.disk.twist(view.diagonal[x]))

    def quiver_of(self, order: Sequence[ArcClass] | None = None) -> ColoredQuiver:
        """Colored quiver with one vertex per arc (canonical order).

        Two arcs bounding two distinct common faces contribute arrows from
        both faces, so multiplicities up to 2 occur.
        """
        return quiver_from_faces(self.config.m, order or self.arcs, self.faces())

    def to_json_dict(self) -> dict:
        arcs = []
        for a in self.arcs:
            if isinstance(a, Bridge):
                arcs.append(
                    {"kind": "bridge", "outer": a.outer, "inner": a.inner,
                     "winding": a.winding}
                )
            elif isinstance(a, OuterChord):
                arcs.append({"kind": "outer_chord", "start": a.start, "span": a.span})
            else:
                arcs.append({"kind": "inner_chord", "start": a.start, "span": a.span})
        return {
            "type": "annulus",
            "m": self.config.m,
            "p": self.config.p,
            "q": self.config.q,
            "arcs": arcs,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AnnulusAngulation":
        cfg = AnnulusConfig(*(json_int(data[f], f) for f in ("m", "p", "q")))
        arcs = []
        for a in data["arcs"]:
            kind = a["kind"]
            if kind == "bridge":
                make, fields = Bridge, ("outer", "inner", "winding")
            elif kind == "outer_chord":
                make, fields = OuterChord, ("start", "span")
            elif kind == "inner_chord":
                make, fields = InnerChord, ("start", "span")
            else:
                raise ValueError(f"unknown arc kind {kind!r}")
            arcs.append(make(*(json_int(a[f], f) for f in fields)))
        return cls(cfg, arcs)


def initial_bridges(cfg: AnnulusConfig) -> AnnulusAngulation:
    """The angulation of p+q bridges whose gaps alternate p runs of m
    outer edges with q runs of m inner edges."""
    arcs: list[ArcClass] = [Bridge(1 + k * cfg.m, 1, 1) for k in range(cfg.p)]
    arcs += [Bridge(1, 1 + j * cfg.m, 0) for j in range(cfg.q)]
    return AnnulusAngulation(cfg, arcs)


def is_m_ear(cfg: AnnulusConfig, arc: ArcClass) -> bool:
    """True iff the arc is a chord cutting off a single (m+2)-gon."""
    if isinstance(arc, Bridge):
        return False
    return arc.span == cfg.m + 1


def completions(
    cfg: AnnulusConfig, partial: Iterable[ArcClass], removed: ArcClass
) -> list[ArcClass]:
    """The m+1 arcs completing an almost-complete angulation, in clockwise
    cycle order starting after ``removed`` and ending with it."""
    partial = tuple(sorted(set(partial), key=arc_sort_key))
    if len(partial) != cfg.rank - 1:
        raise InvalidAngulation("input is not an almost-complete angulation")
    for a in partial:
        if crosses(cfg, a, removed):
            raise InvalidAngulation(f"{removed} crosses {a}")
    ref = min(
        (b for b in partial if isinstance(b, Bridge)), key=arc_sort_key, default=None
    )
    if ref is None:
        raise InvalidAngulation("an almost-complete angulation keeps a bridge")
    cut = BridgeCut(cfg, ref)
    from .disk import completions as disk_completions

    disk_partial = [cut.to_disk(a) for a in partial if a != ref]
    out = []
    for diag in disk_completions(cut.disk, disk_partial, cut.to_disk(removed)):
        out.append(cut.from_disk(diag))
    return out


class BridgeCut:
    """Cutting the annulus open along a bridge.

    The cut disk has m(p+q)+2 vertices labeled clockwise: 1..mp+1 run along
    the outer boundary from the bridge's outer endpoint back to its second
    copy; mp+2..m(p+q)+2 run back along the inner boundary.  Arcs that do
    not cross the bridge transport to disk diagonals and back.
    """

    def __init__(self, cfg: AnnulusConfig, bridge: Bridge):
        self.cfg = cfg
        self.bridge = bridge
        self.disk = DiskConfig(cfg.m, cfg.m * (cfg.p + cfg.q) + 2)
        self._top0 = cfg.top(bridge.outer)
        self._bot0 = cfg.bottom(bridge.inner, bridge.winding)

    # -- vertex maps -------------------------------------------------------

    def _top_vertex(self, pos: int) -> int:
        offset, rem = divmod(pos - self._top0, self.cfg.inner_len)
        assert rem == 0 and 0 <= offset <= self.cfg.outer_len
        return 1 + offset

    def _bottom_vertex(self, pos: int) -> int:
        offset, rem = divmod(pos - self._bot0, self.cfg.outer_len)
        assert rem == 0 and 0 <= offset <= self.cfg.inner_len
        return self.disk.sides - offset

    def outer_label(self, disk_vertex: int) -> int:
        """Outer boundary label of a top disk vertex (1..mp+1)."""
        return (self.bridge.outer + disk_vertex - 2) % self.cfg.outer_len + 1

    def inner_label(self, disk_vertex: int) -> int:
        """Inner boundary label of a bottom disk vertex (mp+2..S')."""
        offset = self.disk.sides - disk_vertex
        return (self.bridge.inner + offset - 1) % self.cfg.inner_len + 1

    # -- arc transport -----------------------------------------------------

    def to_disk(self, arc: ArcClass) -> Diagonal:
        """Disk diagonal of an arc that does not cross the cut bridge."""
        cfg = self.cfg
        if arc == self.bridge:
            raise ValueError("the cut bridge itself does not transport")
        if crosses(cfg, arc, self.bridge):
            raise ValueError(f"{arc} crosses the cut bridge")
        per = cfg.period
        if isinstance(arc, Bridge):
            t, b = cfg.top(arc.outer), cfg.bottom(arc.inner, arc.winding)
            placements = []
            for n in range(
                -((t - self._top0) // per) - 1, -((t - self._top0) // per) + 2
            ):
                tt, bb = t + n * per, b + n * per
                if (
                    self._top0 <= tt <= self._top0 + per
                    and self._bot0 <= bb <= self._bot0 + per
                ):
                    placements.append((tt, bb))
            placements = [
                (tt, bb)
                for tt, bb in placements
                if not (tt == self._top0 and bb == self._bot0)
                and not (tt == self._top0 + per and bb == self._bot0 + per)
            ]
            assert len(placements) == 1, f"ambiguous placement of {arc}"
            tt, bb = placements[0]
            return Diagonal(self._top_vertex(tt), self._bottom_vertex(bb))
        if isinstance(arc, OuterChord):
            offset = (arc.start - self.bridge.outer) % cfg.outer_len
            assert offset + arc.span <= cfg.outer_len
            return Diagonal(1 + offset, 1 + offset + arc.span)
        offset = (arc.start - self.bridge.inner) % cfg.inner_len
        assert offset + arc.span <= cfg.inner_len
        return Diagonal(
            self.disk.sides - offset - arc.span, self.disk.sides - offset
        )

    def encloses(self, diag: Diagonal) -> bool:
        """True iff diag joins the two copies of a cut endpoint: the loop
        arc it stands for encloses a boundary, outside the arc model."""
        top_max = self.cfg.outer_len + 1
        return diag in (Diagonal(1, top_max), Diagonal(top_max + 1, self.disk.sides))

    def from_disk(self, diag: Diagonal) -> ArcClass:
        """Annulus arc of a disk diagonal; raises UnsupportedFlip for the
        two diagonals joining the copies of a cut endpoint (loop arcs)."""
        cfg = self.cfg
        top_max = cfg.outer_len + 1
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
        # bridge: recover winding from lift positions
        tpos = self._top0 + (diag.a - 1) * cfg.inner_len
        bpos = self._bot0 + (self.disk.sides - diag.b) * cfg.outer_len
        outer = (tpos // cfg.inner_len - 1) % cfg.outer_len + 1
        k_top = (tpos // cfg.inner_len - outer) // cfg.outer_len
        inner = (bpos // cfg.outer_len - 1) % cfg.inner_len + 1
        k_bot_w = (bpos // cfg.outer_len - inner) // cfg.inner_len
        return Bridge(outer, inner, k_bot_w - k_top)

    # -- face pullback -----------------------------------------------------

    def side_back(self, side) -> object:
        if isinstance(side, Diagonal):
            return self.from_disk(side)
        u, v = side.u, side.v
        top_max = self.cfg.outer_len + 1
        if {u, v} in ({top_max, top_max + 1}, {self.disk.sides, 1}):
            return self.bridge
        if v <= top_max:
            return BoundaryEdge("outer", self.outer_label(u))
        return BoundaryEdge("inner", self.inner_label(v))

    def vertex_back(self, disk_vertex: int) -> tuple[str, int]:
        if disk_vertex <= self.cfg.outer_len + 1:
            return ("O", self.outer_label(disk_vertex))
        return ("I", self.inner_label(disk_vertex))

    def face_back(self, face: Face) -> Face:
        return Face(
            tuple(self.vertex_back(v) for v in face.vertices),
            tuple(self.side_back(s) for s in face.sides),
        )


class CutView:
    """An angulation cut open along one of its bridges: the cut, the disk
    diagonal of every other arc, and the disk angulation they form."""

    # a plain class: a frozen dataclass costs about 1 ms at every import
    def __init__(self, cut: BridgeCut, diagonal: dict[ArcClass, Diagonal],
                 disk: DiskAngulation):
        self.cut = cut
        self.diagonal = diagonal
        self.disk = disk

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        return tuple(self.cut.face_back(f) for f in self.disk.faces())


@dataclass(frozen=True)
class AnnulusBridgeCutResult:
    """Public cut result along a bridge: one disk plus transport maps."""

    cut: BridgeCut

    @property
    def disk(self) -> DiskConfig:
        return self.cut.disk

    def transport(self, arc: ArcClass) -> Diagonal:
        return self.cut.to_disk(arc)

    def pull_back(self, diag: Diagonal) -> ArcClass:
        return self.cut.from_disk(diag)


@dataclass(frozen=True)
class AnnulusChordCutResult:
    """Public cut result along a chord: a smaller annulus plus a disk."""

    config: AnnulusConfig
    chord: OuterChord | InnerChord
    annulus: AnnulusConfig
    disk: DiskConfig

    def _relabel(self, v: int) -> int:
        """New boundary label of a surviving vertex on the cut boundary."""
        length = (
            self.config.outer_len
            if isinstance(self.chord, OuterChord)
            else self.config.inner_len
        )
        end = (self.chord.start + self.chord.span - 1) % length + 1
        return (v - end) % length + 1

    def _winding_shift(self, v: int) -> int:
        length = (
            self.config.outer_len
            if isinstance(self.chord, OuterChord)
            else self.config.inner_len
        )
        end = (self.chord.start + self.chord.span - 1) % length + 1
        return 1 if v < end else 0

    def transport(self, arc: ArcClass) -> tuple[str, ArcClass | Diagonal]:
        """('annulus', arc) or ('disk', diagonal) for a noncrossing arc."""
        cfg, ch = self.config, self.chord
        if arc == ch:
            raise ValueError("the cut chord itself does not transport")
        if crosses(cfg, arc, ch):
            raise ValueError(f"{arc} crosses the cut chord")
        outer_side = isinstance(ch, OuterChord)
        length = cfg.outer_len if outer_side else cfg.inner_len
        if isinstance(arc, Bridge):
            v = arc.outer if outer_side else arc.inner
            nv = self._relabel(v)
            if outer_side:
                w = arc.winding + self._winding_shift(v)
                return ("annulus", Bridge(nv, arc.inner, w))
            w = arc.winding - self._winding_shift(v)
            return ("annulus", Bridge(arc.outer, nv, w))
        same_side = type(arc) is type(ch)
        if not same_side:
            return ("annulus", arc)
        # chord on the cut boundary: inside the cut-off disk, or surviving
        off = (arc.start - ch.start) % length
        if off + arc.span <= ch.span:
            return ("disk", Diagonal(1 + off, 1 + off + arc.span))
        n_start = self._relabel(arc.start)
        end = (arc.start + arc.span - 1) % length + 1
        n_end = self._relabel(end)
        new_len = length - ch.span + 1
        n_span = (n_end - n_start) % new_len
        kind = OuterChord if outer_side else InnerChord
        return ("annulus", kind(n_start, n_span))


def cut_along(
    cfg: AnnulusConfig, arc: ArcClass
) -> AnnulusBridgeCutResult | AnnulusChordCutResult:
    """Cut the annulus along an arc into smaller model surfaces."""
    if not cfg.is_m_diagonal(arc):
        raise InvalidAngulation(f"{arc} is not an m-diagonal")
    if isinstance(arc, Bridge):
        return AnnulusBridgeCutResult(BridgeCut(cfg, arc))
    if isinstance(arc, OuterChord):
        new_p = cfg.p - (arc.span - 1) // cfg.m
        smaller = AnnulusConfig(cfg.m, new_p, cfg.q)
    else:
        new_q = cfg.q - (arc.span - 1) // cfg.m
        smaller = AnnulusConfig(cfg.m, cfg.p, new_q)
    return AnnulusChordCutResult(
        cfg, arc, smaller, DiskConfig(cfg.m, arc.span + 1)
    )
