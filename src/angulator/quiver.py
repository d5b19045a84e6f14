"""Colored quivers and their mutation.

A colored quiver stores arrow multiplicities q[i, j, c] graded by a color
c in 0..m.  Valid quivers satisfy three axioms: no loops, at most one color
per ordered vertex pair (monochromaticity), and the symmetry
q[i, j, c] == q[j, i, m - c].  Mutation at a vertex is available both as a
closed formula and as a three-step rewriting procedure.  The two agree on
the quivers of angulations, where ``check_axioms`` and the tests compare
them; on some other valid quivers they differ.  Color arithmetic is always
modulo m + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class VertexRangeError(IndexError):
    """A vertex index lies outside 0..n-1."""

    @classmethod
    def of(cls, what: str, n: int) -> "VertexRangeError":
        """The error naming ``what``, which holds an index outside 0..n-1;
        a quiver without vertices is said to have none."""
        if n == 0:
            return cls(f"{what}: the quiver has no vertices")
        return cls(f"{what} outside 0..{n - 1}")


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance; ``site`` names the offending indices."""

    axiom: str  # "loop" | "monochromaticity" | "symmetry"
    site: tuple

    def __str__(self):
        return f"{self.axiom} at {self.site}"


@dataclass(frozen=True)
class PlainQuiver:
    """A quiver without colors: vertex count plus an arrow multiset."""

    n: int
    arrows: tuple[tuple[tuple[int, int], int], ...]  # ((i, j), mult), sorted

    def mult(self, i, j):
        return dict(self.arrows).get((i, j), 0)


def json_int(value, field: str) -> int:
    """``value`` when it is a JSON integer; floats and booleans (which
    Python counts as integers) are rejected with a TypeError."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, got {value!r}")
    return value


def _as_arrow_dict(arrows):
    if isinstance(arrows, Mapping):
        items = arrows.items()
    else:
        items = arrows
    out = {}
    for key, mult in items:
        i, j, c = key
        if mult < 0:
            raise ValueError(f"negative multiplicity at {key}")
        if mult:
            out[(i, j, c)] = out.get((i, j, c), 0) + mult
    return out


def _fill(quiver, m, n, mult):
    object.__setattr__(quiver, "m", m)
    object.__setattr__(quiver, "n", n)
    object.__setattr__(quiver, "_mult", mult)
    object.__setattr__(quiver, "_mutations", {})  # vertex k -> mutate(k)


class ColoredQuiver:
    """Immutable colored quiver on vertices 0..n-1 with colors 0..m.

    The public constructor and ``from_json_dict`` check their input; the
    results of ``mutate``, ``mutate_procedural``, ``_relabelled`` and
    ``faces.quiver_from_faces`` are built by ``_unchecked``, as they are in
    range and hold no zero multiplicity by construction.  As the quiver
    never changes, ``mutate(k)`` is computed once per vertex k.
    """

    __slots__ = ("m", "n", "_mult", "_mutations")

    def __init__(self, m: int, n: int, arrows: Mapping | Iterable = ()):
        if m < 1:
            raise ValueError("color bound m must be >= 1")
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        mult = _as_arrow_dict(arrows)
        for i, j, c in mult:
            if not (0 <= i < n and 0 <= j < n):
                raise VertexRangeError.of(f"arrow ({i}, {j})", n)
            if not (0 <= c <= m):
                raise ValueError(f"color {c} outside 0..{m}")
        _fill(self, m, n, mult)

    @classmethod
    def _unchecked(cls, m: int, n: int, mult: dict) -> "ColoredQuiver":
        """The quiver of ``mult``, taken over as it is: every key (i, j, c)
        must lie in 0..n-1 x 0..n-1 x 0..m and every value be positive."""
        out = object.__new__(cls)
        _fill(out, m, n, mult)
        return out

    def __setattr__(self, *_):
        raise AttributeError("ColoredQuiver is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, ColoredQuiver)
            and self.m == other.m
            and self.n == other.n
            and self._mult == other._mult
        )

    def __hash__(self):
        return hash((self.m, self.n, frozenset(self._mult.items())))

    def __repr__(self):
        arrows = ", ".join(
            f"{i}-({c})->{j} x{v}" if v != 1 else f"{i}-({c})->{j}"
            for (i, j, c), v in self.arrows()
        )
        return f"ColoredQuiver(m={self.m}, n={self.n}, [{arrows}])"

    def mult(self, i, j, c) -> int:
        return self._mult.get((i, j, c % (self.m + 1)), 0)

    def arrows(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        """Arrows as ((i, j, c), mult) in canonical (i, j, c) order."""
        return iter(sorted(self._mult.items()))

    # -- axioms ----------------------------------------------------------

    def validate(self) -> list[Violation]:
        """All axiom violations; an empty list means the quiver is valid.

        The loops come first, then the pairs with more than one colour,
        then the symmetry failures, each group in ascending order of its
        site.  A symmetry failure is reported once per mirror pair
        (i, j, c) / (j, i, m - c), at the lesser of the two that exist.
        """
        m = self.m
        mult = self._mult
        loops, symmetry = [], []
        colour = {}  # (i, j) -> a colour it carries
        mixed = set()
        for key, v in mult.items():
            i, j, c = key
            if i == j:
                loops.append(key)
                continue
            if colour.setdefault((i, j), c) != c:
                mixed.add((i, j))
            mirror = (j, i, m - c)
            w = mult.get(mirror)
            if w != v and (w is None or key < mirror):
                symmetry.append(key)
        return (
            [Violation("loop", site) for site in sorted(loops)]
            + [Violation("monochromaticity", site) for site in sorted(mixed)]
            + [Violation("symmetry", site) for site in sorted(symmetry)]
        )

    def is_valid(self) -> bool:
        return not self.validate()

    # -- mutation --------------------------------------------------------

    def _check_vertex(self, k):
        if not (0 <= k < self.n):
            raise VertexRangeError.of(f"vertex {k}", self.n)

    def _relabelled(self, vertex) -> "ColoredQuiver":
        """The quiver with vertex i renamed ``vertex[i]``; ``vertex`` must
        list a permutation of 0..n-1."""
        return ColoredQuiver._unchecked(self.m, self.n, {
            (vertex[i], vertex[j], c): v for (i, j, c), v in self._mult.items()})

    def mutate(self, k: int) -> "ColoredQuiver":
        """Mutation at vertex k via the closed formula of ``_mutated``,
        computed once per vertex: ``mutate(k) is mutate(k)``."""
        out = self._mutations.get(k)
        if out is None:
            out = self._mutations[k] = self._mutated(k)
        return out

    def _mutated(self, k: int) -> "ColoredQuiver":
        """Mutation at vertex k via the closed three-case formula, computed
        afresh.

        Colors of arrows into k rise by one, colors out of k drop by one
        (mod m + 1); other pairs follow the max{0, ...} exchange count.
        The incident shift is the one under which flips of angulations
        commute with mutation; it agrees with the three-step procedure.

        Only pairs that already carry an arrow, or that a path i -> k -> j
        joins, are visited, and of each only the colours the formula can
        make positive: those of (i, j), those of (i, k) when k -(0)-> j
        exists and those of (k, j) when i -(m)-> k exists.  At any other
        colour c the terms in q(i,j,c), q(i,k,c) and q(k,j,c) vanish and
        the rest are at most zero, as multiplicities are positive, so
        skipping it is exact for every input, valid or not, and the cost
        does not depend on m.
        """
        self._check_vertex(k)
        m, mm = self.m, self.m + 1
        at = {}  # (i, j) -> {colour: mult}, loops left out
        for (i, j, c), v in self._mult.items():
            if i != j:
                at.setdefault((i, j), {})[c] = v
        into_k = {i for i, j in at if j == k}
        out_of_k = {j for i, j in at if i == k}
        pairs = set(at)
        pairs.update((i, j) for i in into_k for j in out_of_k if i != j)
        none = {}
        new = {}
        for i, j in pairs:
            here = at.get((i, j), none)
            if i == k:
                for c, v in here.items():
                    new[(i, j, (c - 1) % mm)] = v
            elif j == k:
                for c, v in here.items():
                    new[(i, j, (c + 1) % mm)] = v
            else:
                ik = at.get((i, k), none)
                kj = at.get((k, j), none)
                kj0 = kj.get(0, 0)
                ikm = ik.get(m, 0)
                colours = set(here)
                if kj0:
                    colours.update(ik)
                if ikm:
                    colours.update(kj)
                total = sum(here.values())
                for c in colours:
                    v = (
                        2 * here.get(c, 0) - total
                        + (ik.get(c, 0) - ik.get((c - 1) % mm, 0)) * kj0
                        + ikm * (kj.get(c, 0) - kj.get((c + 1) % mm, 0))
                    )
                    if v > 0:
                        new[(i, j, c)] = v
        return ColoredQuiver._unchecked(self.m, self.n, new)

    def mutate_inverse(self, k: int) -> "ColoredQuiver":
        """Inverse mutation, realized as mutation applied m times at k.
        The m - 1 quivers on the way are not kept: they go through
        ``_mutated``, not the memo of ``mutate``, so the memory stays O(1)
        in m."""
        self._check_vertex(k)
        q = self
        for _ in range(self.m):
            q = q._mutated(k)
        return q

    def mutate_procedural(self, k: int) -> "ColoredQuiver":
        """Mutation at k via the three-step procedure.

        Step 1 composes paths through k with a color-0 second leg, step 2
        cancels clashing colors pairwise until monochromatic, step 3 adds 1
        to the color of every arrow into k and subtracts 1 from the color
        of every arrow out of k.  Arrows are kept per vertex pair, so each
        step visits only the colors a pair carries and the cost does not
        depend on m.  It agrees with ``mutate`` on the quivers of
        angulations, not on every valid quiver.
        """
        self._check_vertex(k)
        mm = self.m + 1
        work = {}  # (i, j) -> {colour: mult}
        for (i, j, c), v in self._mult.items():
            work.setdefault((i, j), {})[c] = v
        into_k = [((i, c), v) for (i, j, c), v in self._mult.items() if j == k]
        out0 = [(j, v) for (i, j, c), v in self._mult.items() if i == k and c == 0]

        def add(i, j, c, v):
            colours = work.setdefault((i, j), {})
            colours[c] = colours.get(c, 0) + v

        # step 1: for every path i -(c)-> k -(0)-> j add i -(c)-> j, j -(m-c)-> i
        for (i, c), vi in into_k:
            for j, vj in out0:
                if i == j:
                    continue
                add(i, j, c, vi * vj)
                add(j, i, self.m - c, vi * vj)
        # step 2: restore monochromaticity, ascending (i, j), mirrored removals
        for i, j in sorted(pair for pair in work if pair[0] < pair[1]):
            colours = work[(i, j)]
            while True:
                present = sorted(c for c, v in colours.items() if v > 0)
                if len(present) <= 1:
                    break
                c1, c2 = present[0], present[1]
                r = min(colours[c1], colours[c2])
                colours[c1] -= r
                colours[c2] -= r
                add(j, i, self.m - c1, -r)
                add(j, i, self.m - c2, -r)
        # step 3: shift colors at k
        new = {}
        for (i, j), colours in work.items():
            for c, v in colours.items():
                if v <= 0:
                    continue
                if j == k:
                    c = (c + 1) % mm
                elif i == k:
                    c = (c - 1) % mm
                new[(i, j, c)] = new.get((i, j, c), 0) + v
        return ColoredQuiver._unchecked(self.m, self.n, new)

    # -- derived quivers and export ---------------------------------------

    def gabriel(self) -> PlainQuiver:
        """The subquiver of color-0 arrows."""
        arrows = sorted(
            ((i, j), v) for (i, j, c), v in self._mult.items() if c == 0
        )
        return PlainQuiver(self.n, tuple(arrows))

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "vertices": self.n,
            "arrows": [
                {"from": i, "to": j, "color": c, "mult": v}
                for (i, j, c), v in self.arrows()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ColoredQuiver":
        """The quiver of a ``to_json_dict`` record, with every check of the
        constructor: the multiplicities of repeated arrows are added up
        first, then checked."""
        arrows = {}
        for a in data["arrows"]:
            key = (json_int(a["from"], "from"), json_int(a["to"], "to"),
                   json_int(a["color"], "color"))
            arrows[key] = arrows.get(key, 0) + json_int(a.get("mult", 1), "mult")
        return cls(json_int(data["m"], "m"), json_int(data["vertices"], "vertices"),
                   arrows)

    def to_dot(self) -> str:
        lines = ["digraph quiver {"]
        for v in range(self.n):
            lines.append(f'  {v} [label="{v}"];')
        for (i, j, c), v in self.arrows():
            lines.append(f'  {i} -> {j} [label="({c})", penwidth={v}];')
        lines.append("}")
        return "\n".join(lines)
