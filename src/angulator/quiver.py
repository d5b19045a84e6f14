"""Colored quivers and their mutation.

A colored quiver stores arrow multiplicities q[i, j, c] graded by a color
c in 0..m.  Valid quivers satisfy three axioms: no loops, at most one color
per ordered vertex pair (monochromaticity), and the symmetry
q[i, j, c] == q[j, i, m - c].  Mutation at a vertex is available both as a
closed formula and as the equivalent three-step rewriting procedure; color
arithmetic is always modulo m + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class VertexRangeError(IndexError):
    """A vertex index lies outside 0..n-1."""


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


class ColoredQuiver:
    """Immutable colored quiver on vertices 0..n-1 with colors 0..m."""

    __slots__ = ("m", "n", "_mult", "_key")

    def __init__(self, m: int, n: int, arrows: Mapping | Iterable = ()):
        if m < 1:
            raise ValueError("color bound m must be >= 1")
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        mult = _as_arrow_dict(arrows)
        for i, j, c in mult:
            if not (0 <= i < n and 0 <= j < n):
                raise VertexRangeError(f"arrow ({i}, {j}) outside 0..{n - 1}")
            if not (0 <= c <= m):
                raise ValueError(f"color {c} outside 0..{m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_mult", mult)
        object.__setattr__(self, "_key", (m, n, tuple(sorted(mult.items()))))

    def __setattr__(self, *_):
        raise AttributeError("ColoredQuiver is immutable")

    def __eq__(self, other):
        return isinstance(other, ColoredQuiver) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

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
        """All axiom violations; an empty list means the quiver is valid."""
        out = []
        for (i, j, c), v in sorted(self._mult.items()):
            if i == j and v:
                out.append(Violation("loop", (i, j, c)))
        pair_colors = {}
        for (i, j, c), v in self._mult.items():
            if i != j and v:
                pair_colors.setdefault((i, j), []).append(c)
        for (i, j), colors in sorted(pair_colors.items()):
            if len(colors) > 1:
                out.append(Violation("monochromaticity", (i, j)))
        seen = set()
        for i, j, c in sorted(self._mult):
            if i == j or (i, j, c) in seen:
                continue
            seen.add((j, i, (self.m - c) % (self.m + 1)))
            if self.mult(i, j, c) != self.mult(j, i, self.m - c):
                out.append(Violation("symmetry", (i, j, c)))
        return out

    def is_valid(self) -> bool:
        return not self.validate()

    # -- mutation --------------------------------------------------------

    def _check_vertex(self, k):
        if not (0 <= k < self.n):
            raise VertexRangeError(f"vertex {k} outside 0..{self.n - 1}")

    def mutate(self, k: int) -> "ColoredQuiver":
        """Mutation at vertex k via the closed three-case formula.

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
        return ColoredQuiver(self.m, self.n, new)

    def mutate_inverse(self, k: int) -> "ColoredQuiver":
        """Inverse mutation, realized as mutate applied m times at k."""
        self._check_vertex(k)
        q = self
        for _ in range(self.m):
            q = q.mutate(k)
        return q

    def mutate_procedural(self, k: int) -> "ColoredQuiver":
        """Mutation at k via the three-step procedure.

        Step 1 composes paths through k with a color-0 second leg, step 2
        cancels clashing colors pairwise until monochromatic, step 3 adds 1
        to the color of every arrow into k and subtracts 1 from the color
        of every arrow out of k.  Arrows are kept per vertex pair, so each
        step visits only the colors a pair carries and the cost does not
        depend on m.
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
        return ColoredQuiver(self.m, self.n, new)

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
        arrows = {}
        for a in data["arrows"]:
            key = tuple(json_int(a[f], f) for f in ("from", "to", "color"))
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
