import copy
import hashlib
import itertools
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from angulator.annulus import (
    AnnulusAngulation,
    AnnulusConfig,
    Bridge,
    BridgeCut,
    InnerChord,
    OuterChord,
    UnsupportedFlip,
    completions,
    crosses,
    cut_along,
    initial_bridges,
)
from angulator.disk import (
    Diagonal,
    DiskAngulation,
    Edge,
    InvalidAngulation,
    NotInAngulation,
    crosses as disk_crosses,
)
from angulator.faces import quiver_from_faces
from angulator.quiver import ColoredQuiver
from angulator.verify import ANNULUS_MATRIX, random_walk

C43 = AnnulusConfig(2, 4, 3)  # mp = 8, mq = 6
C11 = AnnulusConfig(1, 1, 1)


@st.composite
def bridges(draw, cfg):
    return Bridge(
        draw(st.integers(1, cfg.outer_len)),
        draw(st.integers(1, cfg.inner_len)),
        draw(st.integers(-3, 3)),
    )


@st.composite
def arcs(draw, cfg):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(bridges(cfg))
    length = cfg.outer_len if kind == 1 else cfg.inner_len
    spans = list(range(cfg.m + 1, length, cfg.m))
    if not spans:
        return draw(bridges(cfg))
    cls = OuterChord if kind == 1 else InnerChord
    return cls(draw(st.integers(1, length)), draw(st.sampled_from(spans)))


def reference_bridge_crossings(cfg, x, y):
    """Bridge crossings through the lifts to the strip (reference): one
    for every deck multiple strictly between the differences of the top
    and of the bottom abscissas, scaled by mp * mq to integers."""
    if x == y:
        return 0

    def top(outer):
        return outer * cfg.inner_len

    def bottom(inner, winding):
        return (inner + winding * cfg.inner_len) * cfg.outer_len

    dt = top(x.outer) - top(y.outer)
    db = bottom(x.inner, x.winding) - bottom(y.inner, y.winding)
    lo, hi = min(dt, db), max(dt, db)
    per = cfg.outer_len * cfg.inner_len
    return max(0, (hi - 1) // per - lo // per)


def reference_crosses(cfg, x, y):
    """The crossing predicate with its equality shortcut (reference)."""
    if x == y:
        return False
    if isinstance(x, Bridge) and isinstance(y, Bridge):
        return reference_bridge_crossings(cfg, x, y) > 0
    if isinstance(x, Bridge):
        x, y = y, x
    length = cfg.outer_len if isinstance(x, OuterChord) else cfg.inner_len
    if isinstance(y, Bridge):
        v = y.outer if isinstance(x, OuterChord) else y.inner
        return 0 < (v - x.start) % length < x.span
    if type(x) is not type(y):
        return False
    a1, b1 = x.start, x.start + x.span
    base = x.start + (y.start - x.start) % length
    for a2 in (base - length, base, base + length):
        b2 = a2 + y.span
        if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
            return True
    return False


def crossing_pool(cfg):
    """Bridges with windings -3..3 and chords of both kinds and every span."""
    pool = [Bridge(o, i, w) for o in range(1, cfg.outer_len + 1)
            for i in range(1, cfg.inner_len + 1) for w in range(-3, 4)]
    for kind, length in ((OuterChord, cfg.outer_len), (InnerChord, cfg.inner_len)):
        pool += [kind(s, t) for s in range(1, length + 1) for t in range(1, length)]
    return pool


def reference_to_disk(cut, arc):
    """Disk diagonal of a bridge that does not cross the cut bridge, by a
    search over its lifts (reference).  In the scaled strip coordinates of
    ``crosses``, the cut strip's top side runs over [top0, top0 + per] and
    its bottom side over [bot0, bot0 + per]; the bridge's own two lifts
    bound it.  The arc's lifts with a top on the top side are one, or two
    when it shares the cut bridge's outer endpoint; exactly one of them
    has its bottom on the bottom side and is not a lift of the bridge."""
    cfg, y = cut.cfg, cut.bridge
    outer_len, inner_len = cfg.outer_len, cfg.inner_len
    per = outer_len * inner_len
    top0 = y.outer * inner_len
    bot0 = (y.inner + y.winding * inner_len) * outer_len
    t = arc.outer * inner_len
    b = (arc.inner + arc.winding * inner_len) * outer_len
    tt = top0 + (t - top0) % per
    bb = b + tt - t
    lifts = [(tt, bb), (tt + per, bb + per)] if tt == top0 else [(tt, bb)]
    placements = [
        (x, z) for x, z in lifts
        if bot0 <= z <= bot0 + per
        and (x, z) not in ((top0, bot0), (top0 + per, bot0 + per))
    ]
    assert len(placements) == 1, f"ambiguous placement of {arc}"
    [(x, z)] = placements
    top, rem = divmod(x - top0, inner_len)
    assert rem == 0 and 0 <= top <= outer_len
    bottom, rem = divmod(z - bot0, outer_len)
    assert rem == 0 and 0 <= bottom <= inner_len
    return Diagonal(1 + top, cut.sides - bottom)


MATRIX_ANNULI = [AnnulusConfig(1, 4, 3), C43]


class TestCrossesAgainstReference:
    @pytest.mark.parametrize("cfg", [AnnulusConfig(m, p, q) for m in (1, 2, 3)
                                     for p, q in ((1, 1), (2, 1), (2, 2))]
                             + MATRIX_ANNULI, ids=repr)
    def test_all_pairs_of_a_pool(self, cfg):
        # the second pool holds equal but distinct objects
        for x, y in itertools.product(crossing_pool(cfg), crossing_pool(cfg)):
            assert crosses(cfg, x, y) == reference_crosses(cfg, x, y)

    @pytest.mark.parametrize("cfg", MATRIX_ANNULI, ids=repr)
    def test_bridge_pairs_of_the_maximal_set_pool(self, cfg):
        # the maximal-set pool holds windings -w..w, w = p+q+3, so two of
        # its bridges differ in winding by up to 2w; from one of the four
        # corner endpoints, every endpoint difference of two bridges is met
        w = cfg.p + cfg.q + 3
        corners = [(o, i) for o in (1, cfg.outer_len) for i in (1, cfg.inner_len)]
        for (o, i), o2, i2 in itertools.product(
            corners, range(1, cfg.outer_len + 1), range(1, cfg.inner_len + 1)
        ):
            x = Bridge(o, i, 0)
            for winding in range(-2 * w, 2 * w + 1):
                y = Bridge(o2, i2, winding)
                count = reference_bridge_crossings(cfg, x, y)
                assert crosses(cfg, x, y) == crosses(cfg, y, x) == (count > 0)


class TestIsMDiagonal:
    def test_bridges_always_qualify(self):
        assert C43.is_m_diagonal(Bridge(1, 1, 0))
        assert C43.is_m_diagonal(Bridge(8, 6, -5))

    def test_chord_span_constraints(self):
        assert C43.is_m_diagonal(OuterChord(1, 3))
        assert not C43.is_m_diagonal(OuterChord(1, 2))  # span not 1 mod m
        assert not C43.is_m_diagonal(OuterChord(1, 8))  # whole boundary
        assert C43.is_m_diagonal(InnerChord(2, 5))

    def test_index_range(self):
        with pytest.raises(IndexError):
            C43.is_m_diagonal(Bridge(9, 1, 0))
        with pytest.raises(IndexError):
            C43.is_m_diagonal(InnerChord(7, 3))


class TestCrosses:
    def test_same_endpoints_winding_one_apart_disjoint(self):
        # two such bridges triangulate the (1,1)-annulus together
        assert not crosses(C43, Bridge(1, 1, 0), Bridge(1, 1, 1))
        assert not crosses(C11, Bridge(1, 1, 0), Bridge(1, 1, 1))

    def test_same_endpoints_winding_two_apart_cross(self):
        assert crosses(C43, Bridge(1, 1, 0), Bridge(1, 1, 2))
        assert crosses(C43, Bridge(1, 1, 0), Bridge(1, 1, 3))
        assert reference_bridge_crossings(C43, Bridge(1, 1, 0), Bridge(1, 1, 3)) == 2

    def test_parallel_bridges(self):
        assert not crosses(C43, Bridge(1, 1, 0), Bridge(3, 3, 0))

    def test_chord_blocks_interior_bridges(self):
        for w in (-2, 0, 1, 5):
            assert crosses(C43, OuterChord(1, 3), Bridge(2, 1, w))
            assert crosses(C43, OuterChord(1, 3), Bridge(3, 4, w))
        assert not crosses(C43, OuterChord(1, 3), Bridge(1, 1, 0))
        assert not crosses(C43, OuterChord(1, 3), Bridge(4, 1, 2))

    def test_chords_different_boundaries_never_cross(self):
        assert not crosses(C43, OuterChord(1, 3), InnerChord(1, 3))

    def test_chords_same_boundary(self):
        assert crosses(C43, OuterChord(1, 3), OuterChord(2, 3))
        assert not crosses(C43, OuterChord(1, 3), OuterChord(4, 3))
        assert not crosses(C43, OuterChord(1, 3), OuterChord(1, 5))  # nested
        # wrap-around interleaving crosses even with a shared label
        assert crosses(AnnulusConfig(1, 4, 1), OuterChord(1, 3), OuterChord(2, 3))

    def test_complementary_chords_share_both_endpoints(self):
        assert not crosses(C43, OuterChord(1, 3), OuterChord(4, 5))

    @given(st.data())
    @settings(max_examples=200)
    def test_symmetric_irreflexive(self, data):
        x = data.draw(arcs(C43))
        y = data.draw(arcs(C43))
        assert crosses(C43, x, y) == crosses(C43, y, x)
        assert not crosses(C43, x, x)

    @given(st.data(), st.integers(-2, 2))
    @settings(max_examples=200)
    def test_rebasing_invariance(self, data, shift):
        x = data.draw(arcs(C43))
        y = data.draw(arcs(C43))
        assert crosses(C43, x, y) == crosses(
            C43, C43.rebase(x, shift), C43.rebase(y, shift)
        )


class TestInitialBridges:
    def test_one_one(self):
        assert set(initial_bridges(C11).arcs) == {Bridge(1, 1, 0), Bridge(1, 1, 1)}

    def test_four_three(self):
        ang = initial_bridges(C43)
        assert len(ang.arcs) == 7
        assert all(isinstance(a, Bridge) for a in ang.arcs)
        assert ang.is_valid()

    def test_faces_are_m_plus_2_gons(self):
        for m, p, q in ((1, 1, 1), (1, 3, 2), (2, 4, 3), (3, 2, 2)):
            cfg = AnnulusConfig(m, p, q)
            faces = initial_bridges(cfg).faces()
            assert len(faces) == p + q
            assert all(len(f) == m + 2 for f in faces)


class TestFaces:
    def test_one_one_triangles(self):
        faces = initial_bridges(C11).faces()
        assert len(faces) == 2 and all(len(f) == 3 for f in faces)

    def test_face_count_is_rank(self):
        ang = initial_bridges(C43).flip(Bridge(1, 1, 0))
        assert len(ang.faces()) == 7

    def test_face_shape_along_walks(self):
        from angulator.verify import random_walk

        for cfg in (AnnulusConfig(1, 2, 2), AnnulusConfig(2, 4, 3)):
            for ang, _ in random_walk(cfg, 40, 9):
                faces = ang.faces()
                assert len(faces) == cfg.rank
                assert all(len(f) == cfg.m + 2 for f in faces)

    def test_independent_of_cut_bridge(self):
        ang = initial_bridges(C43)
        reference = None
        for b in ang.bridges():
            faces = {frozenset(f.sides) for f in ang.faces(ref=b)}
            if reference is None:
                reference = faces
            assert faces == reference

    def test_foreign_cut_bridge_rejected(self):
        ang = initial_bridges(C43)
        with pytest.raises(NotInAngulation):
            ang.faces(Bridge(2, 1, 0))  # crosses bridges of the angulation
        with pytest.raises(NotInAngulation):
            ang.faces(Bridge(1, 1, 5))

    def test_missing_bridge_rejected(self):
        bad = AnnulusAngulation(C43, [OuterChord(1, 3)] * 1)
        with pytest.raises(InvalidAngulation):
            bad.faces()


class TestFlip:
    def test_one_one_example(self):
        ang = initial_bridges(C11)
        flipped = ang.flip(Bridge(1, 1, 0))
        assert set(flipped.arcs) == {Bridge(1, 1, 1), Bridge(1, 1, 2)}

    def test_flip_cycle_returns_exactly(self):
        for m, p, q in ((1, 1, 1), (2, 2, 1), (2, 4, 3)):
            cfg = AnnulusConfig(m, p, q)
            ang = initial_bridges(cfg)
            arc = ang.arcs[0]
            cur, cur_arc = ang, arc
            for _ in range(m + 1):
                nxt = cur.flip(cur_arc)
                (cur_arc,) = set(nxt.arcs) - set(cur.arcs)
                cur = nxt
            assert cur == ang

    def test_chord_flip_matches_disk_mechanics(self):
        cfg = AnnulusConfig(2, 4, 3)
        base = initial_bridges(cfg)
        # flip a bridge twice to create a chord, then flip the chord
        ang = base.flip(Bridge(3, 1, 1))
        chords = [a for a in ang.arcs if not isinstance(a, Bridge)]
        if not chords:
            ang = ang.flip(sorted(ang.arcs)[0])
            chords = [a for a in ang.arcs if not isinstance(a, Bridge)]
        assert ang.is_valid()
        for c in chords:
            assert ang.flip(c).is_valid()

    def test_unsupported_flip_for_enclosing_arc(self):
        # (2,1) at m=1: the bridge between the two outer-edge faces can
        # only be exchanged for an arc enclosing the inner boundary
        cfg = AnnulusConfig(1, 2, 1)
        ang = initial_bridges(cfg)
        failures = 0
        for a in ang.arcs:
            try:
                ang.flip(a)
            except UnsupportedFlip:
                failures += 1
        assert failures == 1

    def test_m2_flips_never_unsupported(self):
        cfg = AnnulusConfig(2, 2, 1)
        ang = initial_bridges(cfg)
        for a in ang.arcs:
            assert ang.flip(a).is_valid()


class TestCompletions:
    def test_one_one(self):
        out = completions(C11, [Bridge(1, 1, 1)], Bridge(1, 1, 0))
        assert out == [Bridge(1, 1, 2), Bridge(1, 1, 0)]

    def test_count_and_validity(self):
        ang = initial_bridges(C43)
        for arc in ang.arcs:
            rest = [a for a in ang.arcs if a != arc]
            out = completions(C43, rest, arc)
            assert len(out) == C43.m + 1
            assert out[-1] == arc
            for c in out:
                assert AnnulusAngulation(C43, rest + [c]).is_valid()

    def test_flip_takes_the_first_completion(self):
        ang = initial_bridges(C43)
        for arc in ang.arcs:
            rest = [a for a in ang.arcs if a != arc]
            flipped = ang.flip(arc)
            (new_arc,) = set(flipped.arcs) - set(ang.arcs)
            assert new_arc == completions(C43, rest, arc)[0]

    def test_out_of_range_arc_rejected(self):
        arcs = initial_bridges(C43).arcs
        with pytest.raises(IndexError):
            completions(C43, arcs[1:], Bridge(99, 1, 0))
        with pytest.raises(IndexError):
            completions(C43, arcs[1:-1] + (Bridge(1, 99, 0),), arcs[0])

    def test_non_m_diagonal_rejected(self):
        arcs = initial_bridges(C43).arcs
        with pytest.raises(InvalidAngulation, match="OC.O1,2. is not an m-diagonal"):
            completions(C43, arcs[1:], OuterChord(1, 2))
        with pytest.raises(InvalidAngulation, match="OC.O1,2. is not an m-diagonal"):
            completions(C43, arcs[1:-1] + (OuterChord(1, 2),), arcs[0])

    def test_arc_crossing_the_least_bridge_rejected(self):
        arcs = initial_bridges(C43).arcs  # the least bridge is B(O1,I1,0)
        with pytest.raises(InvalidAngulation, match="crosses"):
            completions(C43, arcs[:-2] + (Bridge(7, 1, 2),), arcs[-1])

    def test_crossing_partial_arcs_named(self):
        # the arcs are named, not their diagonals in the cut disk
        partial = [Bridge(1, 1, 0), Bridge(3, 1, 1), OuterChord(1, 3)]
        with pytest.raises(InvalidAngulation) as exc:
            completions(AnnulusConfig(2, 2, 2), partial, Bridge(1, 1, 1))
        assert str(exc.value) == "B(O3,I1,1) crosses OC(O1,3)"

    def test_every_fault_named_as_violations_names_it(self):
        cfg = AnnulusConfig(2, 2, 2)
        partial = [Bridge(1, 1, 1), Bridge(3, 1, 1), OuterChord(1, 3), OuterChord(2, 2)]
        removed = Bridge(1, 1, 0)
        message = ("OC(O2,2) is not an m-diagonal; B(O3,I1,1) crosses OC(O1,3); "
                   "B(O3,I1,1) crosses OC(O2,2); 5 arcs, expected 4")
        assert AnnulusAngulation(cfg, partial + [removed]).violations() == message.split("; ")
        with pytest.raises(InvalidAngulation) as exc:
            completions(cfg, partial, removed)
        assert str(exc.value) == message

    def test_removed_arc_still_present_rejected(self):
        arcs = initial_bridges(C43).arcs
        with pytest.raises(InvalidAngulation, match="still present"):
            completions(C43, arcs[1:], arcs[1])

    def test_cell_rule_named_in_annulus_terms(self):
        # noncrossing m-diagonals whose cut leaves a cell of the wrong size:
        # the message is the one violations() gives, not a cut-disk diagonal
        cfg = AnnulusConfig(3, 2, 1)
        partial, removed = [Bridge(1, 1, 0), Bridge(3, 1, 1)], Bridge(1, 1, 1)
        message = "B(O3,I1,1) is not an m-diagonal of the cut along B(O1,I1,0)"
        assert AnnulusAngulation(cfg, partial + [removed]).violations() == [message]
        with pytest.raises(InvalidAngulation) as exc:
            completions(cfg, partial, removed)
        assert str(exc.value) == message


class TestQuiverOf:
    def test_kronecker(self):
        q = initial_bridges(C11).quiver_of()
        assert dict(q.arrows()) == {(0, 1, 0): 2, (1, 0, 1): 2}
        assert q.is_valid()

    def test_initial_four_three_is_cyclic(self):
        ang = initial_bridges(C43)
        q = ang.quiver_of()
        assert q.is_valid()
        gabriel = q.gabriel()
        # the color-0 arrows form the A~(4,3) shape: one undirected cycle
        # through all seven vertices, four arrows one way, three the other
        assert len(gabriel.arrows) == 7
        adj = {i: set() for i in range(7)}
        for (i, j), v in gabriel.arrows:
            assert v == 1
            adj[i].add(j)
            adj[j].add(i)
        assert all(len(nb) == 2 for nb in adj.values())
        node, prev, seen = 0, None, []
        while node not in seen:
            seen.append(node)
            node, prev = next(w for w in adj[node] if w != prev), node
        assert len(seen) == 7

    def test_single_face_colors_sum_to_m(self):
        ang = initial_bridges(C43)
        q = ang.quiver_of()
        for (i, j, c), v in q.arrows():
            assert q.mult(j, i, C43.m - c) == v


    def test_read_from_the_cut_disk_like_the_mapped_back_faces(self):
        # the quiver renames the cut disk's sides; the faces mapped back to
        # the annulus name their arcs themselves
        for cfg in (C11, AnnulusConfig(1, 2, 2), C43):
            for ang, _ in random_walk(cfg, 15, 8):
                vertex = {a: i for i, a in enumerate(ang.arcs)}
                for ref in ang.bridges():
                    assert ang.quiver_of() == quiver_from_faces(
                        cfg.m, len(vertex), vertex, ang.faces(ref))

    def test_order_lists_every_arc_once(self):
        ang = initial_bridges(C43)
        arcs = list(ang.arcs)
        n = len(arcs)
        place = [n - 1, *range(n - 1)]  # arc k moves to place[k]
        assert ang.quiver_of(arcs[1:] + arcs[:1]) == ColoredQuiver(C43.m, n, {
            (place[i], place[j], c): v for (i, j, c), v in ang.quiver_of().arrows()})
        for order in (arcs[:1], arcs[:-1] + arcs[:1], [], arcs + arcs[:1]):
            with pytest.raises(ValueError, match="not a permutation of the arcs"):
                ang.quiver_of(order)
        # a foreign bridge, and a chord that is no arc of the angulation
        for foreign in (Bridge(2, 1, 0), OuterChord(1, 3)):
            with pytest.raises(NotInAngulation):
                ang.quiver_of(arcs[:-1] + [foreign])


WRONG_CELLS = {
    "type": "annulus", "m": 3, "p": 2, "q": 1,
    "arcs": [
        {"kind": "bridge", "outer": 1, "inner": 1, "winding": 0},
        {"kind": "bridge", "outer": 1, "inner": 1, "winding": 1},
        {"kind": "bridge", "outer": 3, "inner": 1, "winding": 1},
    ],
}
SMALL = [AnnulusConfig(m, p, q) for m in (1, 2, 3)
         for p in (1, 2, 3) for q in (1, 2, 3) if p + q <= 4]


def full_noncrossing_sets(cfg, rng, trials):
    """Random sets of p+q pairwise noncrossing m-diagonal arcs, each with
    a bridge; most need not cut the annulus into (m+2)-gons."""
    pool = [Bridge(o, i, w) for o in range(1, cfg.outer_len + 1)
            for i in range(1, cfg.inner_len + 1) for w in (-1, 0, 1)]
    bridge_count = len(pool)
    for kind, length in ((OuterChord, cfg.outer_len), (InnerChord, cfg.inner_len)):
        pool += [kind(s, t) for s in range(1, length + 1)
                 for t in range(cfg.m + 1, length, cfg.m)]
    for _ in range(trials):
        chosen = [pool[rng.randrange(bridge_count)]]
        for a in rng.sample(pool, len(pool)):
            if len(chosen) < cfg.rank and not any(
                    a == b or crosses(cfg, a, b) for b in chosen):
                chosen.append(a)
        if len(chosen) == cfg.rank:
            yield chosen


class TestCellSizes:
    """An annulus angulation's cells must be (m+2)-gons, not only its arcs
    noncrossing and p+q in number."""

    def test_noncrossing_arcs_with_a_wrong_cell_are_invalid(self):
        ang = AnnulusAngulation.from_json_dict(WRONG_CELLS)
        assert ang.violations() == [
            "B(O3,I1,1) is not an m-diagonal of the cut along B(O1,I1,0)"
        ]
        with pytest.raises(InvalidAngulation):
            ang.quiver_of()

    def test_valid_iff_the_least_bridge_cut_is_a_disk_angulation(self):
        outcomes = {1: set(), 2: set(), 3: set()}
        for cfg in SMALL:
            rng = random.Random(f"{cfg.m}{cfg.p}{cfg.q}")
            for arcs in full_noncrossing_sets(cfg, rng, 40):
                ang = AnnulusAngulation(cfg, arcs)
                ref = ang.bridges()[0]
                cut = BridgeCut(cfg, ref)
                local = DiskAngulation(
                    cut.disk, [cut.to_disk(a) for a in ang.arcs if a != ref])
                assert ang.is_valid() == local.is_valid()
                outcomes[cfg.m].add(ang.is_valid())
        assert outcomes == {1: {True}, 2: {True, False}, 3: {True, False}}


class TestEars:
    def test_chord_of_span_m_plus_1(self):
        assert C43.is_m_ear(OuterChord(1, 3))
        assert C43.is_m_ear(InnerChord(4, 3))

    def test_bridges_never_ears(self):
        assert not C43.is_m_ear(Bridge(1, 1, 0))

    def test_longer_chord_not_ear(self):
        assert not C43.is_m_ear(OuterChord(1, 5))


class TestCutAlong:
    def test_bridge_cut_disk_size(self):
        res = cut_along(C43, Bridge(1, 1, 0))
        assert res.disk.sides == 16

    def test_outer_ear_cut(self):
        res = cut_along(C43, OuterChord(1, 3))
        assert res.annulus == AnnulusConfig(2, 3, 3)
        assert res.disk.sides == 4

    def test_inner_ear_cut(self):
        res = cut_along(C43, InnerChord(2, 3))
        assert res.annulus == AnnulusConfig(2, 4, 2)

    def test_bridge_cut_transport_round_trip(self):
        ang = initial_bridges(C43)
        y = ang.bridges()[0]
        res = cut_along(C43, y)
        for a in ang.arcs:
            if a == y:
                continue
            diag = res.to_disk(a)
            assert res.disk.is_m_diagonal(diag)
            assert res.from_disk(diag) == a

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bridge_placement_matches_the_lift_search(self, m):
        # every noncrossing pair of a bridge with winding -3..3 and a cut
        # bridge with winding -1..1, for p, q <= 3
        for p, q in itertools.product((1, 2, 3), repeat=2):
            cfg = AnnulusConfig(m, p, q)
            ends = list(itertools.product(range(1, cfg.outer_len + 1),
                                          range(1, cfg.inner_len + 1)))
            arcs = [Bridge(o, i, w) for o, i in ends for w in range(-3, 4)]
            for o, i in ends:
                for w in (-1, 0, 1):
                    cut = BridgeCut(cfg, Bridge(o, i, w))
                    for a in arcs:
                        if a != cut.bridge and not crosses(cfg, a, cut.bridge):
                            diag = cut.to_disk(a)
                            assert diag == reference_to_disk(cut, a), (cfg, cut.bridge, a)
                            assert cut.from_disk(diag) == a

    @pytest.mark.parametrize("cfg", [C11, AnnulusConfig(2, 2, 1), C43], ids=repr)
    def test_to_disk_rejects_the_cut_bridge_and_crossing_arcs(self, cfg):
        pool = crossing_pool(cfg)
        for y in (Bridge(1, 1, 0), Bridge(cfg.outer_len, 1, -1), Bridge(1, cfg.inner_len, 2)):
            cut = BridgeCut(cfg, y)
            with pytest.raises(ValueError, match="cut bridge itself"):
                cut.to_disk(Bridge(y.outer, y.inner, y.winding))
            crossing = [a for a in pool if crosses(cfg, a, y)]
            assert crossing
            for a in crossing:
                with pytest.raises(ValueError, match="crosses the cut bridge"):
                    cut.to_disk(a)

    def test_bridge_cut_reads_no_config_property_per_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("config property read")

        for ang, _ in random_walk(C43, 10, 2):
            y = ang.bridges()[0]
            cut = BridgeCut(C43, y)
            with monkeypatch.context() as patch:
                for name in ("outer_len", "inner_len", "rank"):
                    patch.setattr(AnnulusConfig, name, property(refuse))
                for a in ang.arcs:
                    if a != y:
                        diag = cut.to_disk(a)
                        assert not cut.encloses(diag)
                        assert cut.from_disk(diag) == a

    def test_bridge_cut_preserves_crossings(self):
        pool = [Bridge(o, i, w) for o in (1, 3) for i in (1, 4) for w in (0, 1)]
        pool += [OuterChord(3, 3), InnerChord(3, 3)]
        y = Bridge(2, 2, 0)
        res = cut_along(C43, y)
        ok = [a for a in pool if not crosses(C43, a, y)]
        placed = {a: res.to_disk(a) for a in ok}
        for a, b in itertools.combinations(ok, 2):
            assert disk_crosses(placed[a], placed[b]) == crosses(C43, a, b)

    # InnerChord(6, 3) wraps past label 6
    @pytest.mark.parametrize("ear", [OuterChord(2, 3), InnerChord(2, 3), InnerChord(6, 3)],
                             ids=repr)
    def test_chord_cut_preserves_crossings_and_windings(self, ear):
        res = cut_along(C43, ear)
        pool = [Bridge(o, i, w) for o in (1, 2, 5, 7) for i in range(1, 7) for w in (-1, 0, 1)]
        pool += [OuterChord(5, 3), InnerChord(1, 3), OuterChord(5, 5), InnerChord(4, 3)]
        ok = [a for a in pool if not crosses(C43, a, ear)]
        placed = {a: res.transport(a) for a in ok}
        small = {a: v for a, (where, v) in placed.items() if where == "annulus"}
        for a, b in itertools.combinations(small, 2):
            assert crosses(res.annulus, small[a], small[b]) == crosses(C43, a, b)

    def test_nested_chord_lands_in_disk_piece(self):
        cfg = AnnulusConfig(1, 5, 1)
        res = cut_along(cfg, OuterChord(1, 4))
        where, diag = res.transport(OuterChord(2, 2))
        assert where == "disk" and diag == Diagonal(2, 4)

    def test_cut_arc_itself_rejected(self):
        res = cut_along(C43, OuterChord(1, 3))
        with pytest.raises(ValueError):
            res.transport(OuterChord(1, 3))


class TestRebase:
    def test_rebased_minimum_winding_zero(self):
        ang = initial_bridges(C43).flip(Bridge(1, 1, 0))
        rebased = ang.rebased()
        assert min(b.winding for b in rebased.bridges()) == 0
        assert rebased.is_valid()

    def test_no_bridge_rejected(self):
        ang = AnnulusAngulation(AnnulusConfig(2, 2, 1), [OuterChord(1, 3)])
        with pytest.raises(InvalidAngulation, match="^no bridge present$"):
            ang.rebased()


ALL_KINDS_JSON = (
    '{"type": "annulus", "m": 2, "p": 2, "q": 2, "arcs": ['
    '{"kind": "bridge", "outer": 2, "inner": 4, "winding": 0}, '
    '{"kind": "bridge", "outer": 3, "inner": 3, "winding": 1}, '
    '{"kind": "outer_chord", "start": 3, "span": 3}, '
    '{"kind": "inner_chord", "start": 4, "span": 3}]}'
)


class TestSerialization:
    def test_round_trip(self):
        ang = initial_bridges(C43)
        data = json.loads(json.dumps(ang.to_json_dict()))
        assert AnnulusAngulation.from_json_dict(data) == ang

    def test_schema(self):
        data = initial_bridges(C11).to_json_dict()
        assert data["type"] == "annulus"
        assert {a["kind"] for a in data["arcs"]} == {"bridge"}
        assert all(set(a) == {"kind", "outer", "inner", "winding"}
                   for a in data["arcs"])

    def test_chord_kinds(self):
        ang = AnnulusAngulation(C43, [OuterChord(1, 3)])
        data = ang.to_json_dict()["arcs"][0]
        assert data == {"kind": "outer_chord", "start": 1, "span": 3}
        assert AnnulusAngulation.from_json_dict(
            {"type": "annulus", "m": 2, "p": 4, "q": 3, "arcs": [data]}
        ).arcs == (OuterChord(1, 3),)

    def test_every_kind_pinned(self):
        # a valid angulation holding a bridge, an outer and an inner chord
        ang = AnnulusAngulation(AnnulusConfig(2, 2, 2), [
            Bridge(2, 4, 0), Bridge(3, 3, 1), OuterChord(3, 3), InnerChord(4, 3)])
        assert ang.is_valid()
        assert json.dumps(ang.to_json_dict()) == ALL_KINDS_JSON
        assert AnnulusAngulation.from_json_dict(json.loads(ALL_KINDS_JSON)) == ang

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AnnulusAngulation.from_json_dict(
                {"type": "annulus", "m": 1, "p": 1, "q": 1,
                 "arcs": [{"kind": "loop", "at": 1}]}
            )


def reference_sort_key(arc):
    """The canonical arc order as a sort key (reference): bridges by
    (outer, inner, winding), then outer chords, then inner chords, each
    by (start, span)."""
    if isinstance(arc, Bridge):
        return (0, arc.outer, arc.inner, arc.winding)
    if isinstance(arc, OuterChord):
        return (1, arc.start, arc.span)
    return (2, arc.start, arc.span)


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


# sha256 of the repr and the JSON text of every angulation of a 25-step
# walk (seed 3) on each ANNULUS_MATRIX annulus and of its flip there, as
# printed while the arcs were frozen dataclasses
WALK_TEXT_SHA256 = "24740af8e741da0049de4c608a3076ec55dc3ca5c7a0ec055f4dfeb3cf890ec8"
SOME_ARCS = [Bridge(2, 4, -1), OuterChord(3, 3), InnerChord(4, 3)]


class TestArcValues:
    """An arc is the tuple (kind tag, *fields): its hash, equality and
    order are the tuple's, and it keeps the constructor, fields, repr and
    JSON of the frozen dataclass it replaced."""

    def test_tuples_with_a_kind_tag(self):
        assert [tuple(a) for a in SOME_ARCS] == [(0, 2, 4, -1), (1, 3, 3), (2, 4, 3)]
        assert Bridge(outer=2, inner=4, winding=-1) == SOME_ARCS[0]
        assert OuterChord(start=3, span=3) == SOME_ARCS[1]
        assert Bridge.__match_args__ == Bridge._fields == ("outer", "inner", "winding")
        assert OuterChord.__match_args__ == InnerChord._fields == ("start", "span")
        match SOME_ARCS[0]:
            case Bridge(outer, inner, winding):
                assert (outer, inner, winding) == (2, 4, -1)
        with pytest.raises(AttributeError):
            SOME_ARCS[0].winding = 0

    def test_reprs(self):
        assert repr(SOME_ARCS) == "[B(O2,I4,-1), OC(O3,3), IC(I4,3)]"

    @pytest.mark.parametrize("cfg", ANNULUS_MATRIX, ids=repr)
    def test_natural_order_is_the_canonical_order(self, cfg):
        pool = maximal_set_pool(cfg)
        shuffled = random.Random(cfg.rank).sample(pool, len(pool))
        assert sorted(shuffled) == sorted(shuffled, key=reference_sort_key)

    def test_kinds_never_equal_each_other_a_diagonal_or_an_edge(self):
        for a, b in itertools.permutations(range(1, 5), 2):
            values = [Bridge(a, b, 0), OuterChord(a, b), InnerChord(a, b),
                      Diagonal(a, b), Edge(a, b)]
            assert len(set(values)) == len(values)
            assert not any(x == y for x, y in itertools.permutations(values, 2))

    @pytest.mark.parametrize("arc", SOME_ARCS, ids=repr)
    def test_copies_keep_the_class_the_tag_and_the_fields(self, arc):
        fields = [getattr(arc, f) for f in arc._fields]
        copies = [copy.copy(arc), copy.deepcopy(arc), arc._make(fields), arc._replace()]
        copies += [pickle.loads(pickle.dumps(arc, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        if hasattr(copy, "replace"):  # Python 3.13 and later
            copies.append(copy.replace(arc))
        for other in copies:
            assert type(other) is type(arc)
            assert tuple(other) == tuple(arc)

    def test_replace_changes_the_named_fields_only(self):
        bridge, chord = SOME_ARCS[:2]
        assert tuple(bridge._replace(winding=3)) == (0, 2, 4, 3)
        assert type(chord._replace(span=5)) is OuterChord
        assert tuple(chord._replace(span=5)) == (1, 3, 5)
        with pytest.raises(TypeError, match="unexpected field names"):
            bridge._replace(start=1)
        if hasattr(copy, "replace"):
            assert tuple(copy.replace(bridge, inner=1)) == (0, 2, 1, -1)

    def test_walked_reprs_and_json_text_are_unchanged(self):
        digest = hashlib.sha256()
        for cfg in ANNULUS_MATRIX:
            for ang, arc in random_walk(cfg, 25, 3):
                for obj in (ang, ang.flip(arc)):
                    text = json.dumps(obj.to_json_dict())
                    back = AnnulusAngulation.from_json_dict(json.loads(text))
                    assert back == obj and json.dumps(back.to_json_dict()) == text
                    digest.update(f"{obj!r}\n{text}\n".encode())
        assert digest.hexdigest() == WALK_TEXT_SHA256
