import copy
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from angulator import disk
from angulator.annulus import Bridge, InnerChord, OuterChord
from angulator.disk import (
    Diagonal,
    DiskAngulation,
    DiskConfig,
    Edge,
    GuardExceeded,
    InvalidAngulation,
    NotInAngulation,
    completions,
    crosses,
    cut_along,
    enumerate_angulations,
    flip_graph,
    initial_fan,
    maximal_set_sizes,
    region_twist,
)
from angulator.faces import split_regions
from angulator.quiver import ColoredQuiver
from angulator.verify import COMPAT_ENUM_CAP, DISK_MATRIX, fuss_catalan, random_walk
from regions import merged_region

PENTAGON = DiskConfig(1, 5)
OCTAGON = DiskConfig(2, 8)
# the disks whose every angulation the compat suite checks
SMALL_DISKS = [c for c in DISK_MATRIX if fuss_catalan(c.m, c.rank + 1) <= COMPAT_ENUM_CAP]
WALKED_DISKS = [DiskConfig(1, 9), DiskConfig(2, 14), DiskConfig(3, 17)]


def reference_enumerate(cfg):
    """The list-based backtracking that the crossing-table enumeration
    replaced: the reference it must agree with, order included."""
    diagonals = cfg.all_diagonals()
    found = []

    def backtrack(start, chosen):
        if len(chosen) == cfg.rank:
            found.append(DiskAngulation(cfg, chosen))
            return
        if len(chosen) + (len(diagonals) - start) < cfg.rank:
            return
        for idx in range(start, len(diagonals)):
            d = diagonals[idx]
            if all(not crosses(d, e) for e in chosen):
                chosen.append(d)
                backtrack(idx + 1, chosen)
                chosen.pop()

    backtrack(0, [])
    return found


def reference_maximal_set_sizes(cfg):
    """The list-based maximal-set histogram (reference)."""
    diagonals = cfg.all_diagonals()
    sizes = {}

    def backtrack(start, chosen):
        extendable = False
        for idx, d in enumerate(diagonals):
            if d not in chosen and all(not crosses(d, e) for e in chosen):
                extendable = True
                if idx >= start:
                    chosen.append(d)
                    backtrack(idx + 1, chosen)
                    chosen.pop()
        if not extendable:
            sizes[len(chosen)] = sizes.get(len(chosen), 0) + 1

    backtrack(0, [])
    return sizes


def reference_flip_graph(cfg):
    """The BFS that flips at every (node, diagonal) pair (reference)."""
    start = initial_fan(cfg)
    index, order, edges, queue = {start: 0}, [start], set(), [start]
    while queue:
        node = queue.pop()
        for d in node.arcs:
            other = node.flip(d)
            if other not in index:
                index[other] = len(order)
                order.append(other)
                queue.append(other)
            if index[other] != index[node]:
                edges.add(frozenset((index[node], index[other])))
    return order, edges


def pentagon_fan():
    return initial_fan(PENTAGON)


def octagon_fan():
    return initial_fan(OCTAGON)


@st.composite
def diagonal_pairs(draw):
    cfg = DiskConfig(1, draw(st.integers(5, 12)))
    pool = cfg.all_diagonals()
    return draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


class TestConfig:
    def test_rank(self):
        assert PENTAGON.rank == 2
        assert OCTAGON.rank == 2
        assert DiskConfig(3, 14).rank == 3
        assert DiskConfig(2, 6).rank == 1

    def test_side_count_must_fit(self):
        with pytest.raises(ValueError):
            DiskConfig(2, 7)
        with pytest.raises(ValueError):
            DiskConfig(3, 4)


class TestDiagonalValue:
    """A diagonal is the tuple (a, b) with a < b; the other arc and edge
    types are dataclasses that never equal it."""

    def test_endpoints_are_sorted(self):
        d = Diagonal(7, 3)
        assert (d.a, d.b) == (3, 7)
        assert Diagonal(3, 7) == d

    def test_equal_endpoints_refused(self):
        with pytest.raises(ValueError, match="two distinct endpoints"):
            Diagonal(4, 4)

    def test_equals_and_hashes_as_its_tuple(self):
        d = Diagonal(5, 2)
        assert d == (2, 5) and (2, 5) == d
        assert hash(d) == hash((2, 5))
        assert {d: 1}[2, 5] == 1

    @pytest.mark.parametrize("cfg", DISK_MATRIX, ids=repr)
    def test_sorts_by_a_then_b(self, cfg):
        pool = cfg.all_diagonals()
        backwards = pool[::-1]
        assert sorted(backwards) == sorted(backwards, key=lambda d: (d.a, d.b)) == pool

    def test_immutable(self):
        d = Diagonal(1, 4)
        with pytest.raises(AttributeError):
            d.a = 2
        assert d == (1, 4)

    def test_repr(self):
        assert repr(Diagonal(4, 1)) == "(1,4)"
        assert repr([Diagonal(1, 4), Diagonal(4, 7)]) == "[(1,4), (4,7)]"

    def test_make_and_replace_sort_and_check(self):
        assert Diagonal._make((5, 1)) == (1, 5)
        assert type(Diagonal._make((5, 1))) is Diagonal
        d = Diagonal(1, 5)
        assert d._replace(a=9) == (5, 9)
        assert type(d._replace(a=9)) is Diagonal
        with pytest.raises(ValueError, match="two distinct endpoints"):
            d._replace(a=5)
        with pytest.raises(ValueError, match="two distinct endpoints"):
            Diagonal._make((3, 3))
        if hasattr(copy, "replace"):
            # Python 3.13 and later: copy.replace calls _replace
            assert copy.replace(d, a=9) == (5, 9)
            with pytest.raises(ValueError, match="two distinct endpoints"):
                copy.replace(d, a=5)

    def test_copy_is_equal(self):
        d = Diagonal(2, 6)
        assert copy.copy(d) == d and copy.deepcopy(d) == d
        assert type(copy.copy(d)) is Diagonal

    def test_plain_tuple_is_not_in_an_angulation(self):
        # equal to a diagonal of the fan, but no Diagonal: refused alike
        # before and after the twist table is built
        fan = initial_fan(OCTAGON)
        with pytest.raises(NotInAngulation):
            fan.can_flip((1, 4))
        fan.twist(Diagonal(1, 4))
        assert "_sides" in fan.__dict__
        with pytest.raises(NotInAngulation):
            fan.can_flip((1, 4))

    def test_never_equals_another_arc_or_edge(self):
        d = Diagonal(2, 5)
        others = [Edge(d.a, d.b), OuterChord(d.a, d.b), InnerChord(d.a, d.b),
                  Bridge(d.a, d.b, 0)]
        for other in others:
            assert d != other and other != d
        assert len({d, *others}) == 1 + len(others)


class TestIsMDiagonal:
    def test_octagon_cases(self):
        assert OCTAGON.is_m_diagonal(Diagonal(1, 4))
        assert not OCTAGON.is_m_diagonal(Diagonal(1, 3))  # pieces of 3 and 7 sides
        assert not OCTAGON.is_m_diagonal(Diagonal(1, 2))  # boundary edge

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            OCTAGON.is_m_diagonal(Diagonal(0, 4))

    def test_all_diagonals_pentagon(self):
        assert len(PENTAGON.all_diagonals()) == 5


class TestCrosses:
    def test_interleaved(self):
        assert crosses(Diagonal(1, 4), Diagonal(2, 5))

    def test_shared_endpoint(self):
        assert not crosses(Diagonal(1, 4), Diagonal(4, 7))

    def test_disjoint(self):
        assert not crosses(Diagonal(1, 4), Diagonal(5, 8))

    def test_nested(self):
        assert not crosses(Diagonal(1, 6), Diagonal(2, 5))

    @given(diagonal_pairs())
    def test_symmetric_and_irreflexive(self, pair):
        d, e = pair
        assert crosses(d, e) == crosses(e, d)
        assert not crosses(d, d)


class TestInitialFan:
    def test_pentagon(self):
        assert pentagon_fan().arcs == (Diagonal(1, 3), Diagonal(1, 4))

    def test_octagon(self):
        assert octagon_fan().arcs == (Diagonal(1, 4), Diagonal(1, 6))

    def test_rank_zero(self):
        assert initial_fan(DiskConfig(2, 4)).arcs == ()

    def test_always_valid(self):
        for m, r in itertools.product((1, 2, 3), range(5)):
            assert initial_fan(DiskConfig(m, (r + 1) * m + 2)).is_valid()

    def test_arcs_is_the_only_name(self):
        assert not hasattr(octagon_fan(), "diagonals")


def recursive_split(cycle, chords):
    """The region split as first written, one recursion per chord: the
    reference for the order of the regions."""
    chords = list(chords)
    if not chords:
        return [list(cycle)]
    a, b = sorted(chords[0], key=list(cycle).index)
    ia, ib = cycle.index(a), cycle.index(b)
    side1 = list(cycle[ia : ib + 1])
    side2 = list(cycle[ib:]) + list(cycle[: ia + 1])
    in1 = [ch for ch in chords[1:] if ch <= set(side1)]
    in2 = [ch for ch in chords[1:] if not ch <= set(side1)]
    return recursive_split(side1, in1) + recursive_split(side2, in2)


class TestSplitRegions:
    @pytest.mark.parametrize("cfg", [DiskConfig(1, 8), DiskConfig(2, 12),
                                     DiskConfig(3, 14)], ids=repr)
    def test_region_order_of_the_recursive_split(self, cfg):
        _, angulations = enumerate_angulations(cfg, collect=True)
        cycle = list(range(1, cfg.sides + 1))
        for ang in angulations:
            chords = [frozenset((d.a, d.b)) for d in ang.arcs]
            for order in (chords, chords[::-1]):
                assert split_regions(cycle, order) == recursive_split(cycle, order)

    def test_no_recursion_limit(self):
        # one chord more than the interpreter's default recursion limit
        chords = [frozenset((1, k)) for k in range(3, 1004)]
        regions = split_regions(list(range(1, 1005)), chords)
        assert sorted(map(sorted, regions)) == [[1, k, k + 1] for k in range(2, 1004)]


class TestFaces:
    def test_pentagon_fan(self):
        cells = sorted(f.vertices for f in pentagon_fan().faces())
        assert cells == [(1, 2, 3), (1, 3, 4), (4, 5, 1)]

    def test_single_face(self):
        faces = initial_fan(DiskConfig(3, 5)).faces()
        assert len(faces) == 1 and faces[0].vertices == (1, 2, 3, 4, 5)

    def test_octagon_fan(self):
        cells = sorted(f.vertices for f in octagon_fan().faces())
        assert cells == [(1, 2, 3, 4), (1, 4, 5, 6), (6, 7, 8, 1)]

    def test_counts_and_euler(self):
        for m, r in itertools.product((1, 2, 3), (1, 2, 3)):
            cfg = DiskConfig(m, (r + 1) * m + 2)
            faces = initial_fan(cfg).faces()
            assert len(faces) == r + 1
            assert all(len(f) == m + 2 for f in faces)
            assert (r + 1) * (m + 2) == cfg.sides + 2 * r

    def test_face_shape_along_walks(self):
        from angulator.verify import random_walk

        for cfg in (DiskConfig(1, 8), DiskConfig(2, 12), DiskConfig(3, 14)):
            for ang, _ in random_walk(cfg, 40, 9):
                faces = ang.faces()
                assert len(faces) == cfg.rank + 1
                assert all(len(f) == cfg.m + 2 for f in faces)

    def test_each_diagonal_on_two_faces_each_edge_on_one(self):
        ang = octagon_fan().flip(Diagonal(1, 4))
        from collections import Counter

        tally = Counter(
            side for f in ang.faces() for side in f.sides
        )
        for d in ang.arcs:
            assert tally[d] == 2
        edges = [s for s in tally if not isinstance(s, Diagonal)]
        assert all(tally[e] == 1 for e in edges)
        assert len(edges) == 8

    def test_invalid_input_rejected(self):
        bad = DiskAngulation(PENTAGON, [Diagonal(1, 3), Diagonal(2, 4)])
        with pytest.raises(InvalidAngulation):
            bad.faces()


class TestTwistFlip:
    def test_pentagon_twist(self):
        assert pentagon_fan().twist(Diagonal(1, 3)) == Diagonal(2, 4)

    def test_octagon_twist_is_clockwise_neighbor(self):
        assert octagon_fan().twist(Diagonal(1, 4)) == Diagonal(2, 5)

    def test_twist_cycle_length(self):
        for cfg in (PENTAGON, OCTAGON, DiskConfig(3, 11)):
            ang = initial_fan(cfg)
            d = ang.arcs[0]
            cur_ang, cur = ang, d
            for _ in range(cfg.m + 1):
                new = cur_ang.twist(cur)
                cur_ang = cur_ang.flip(cur)
                cur = new
            assert cur == d and cur_ang == ang

    def test_pentagon_flip(self):
        assert pentagon_fan().flip(Diagonal(1, 3)) == DiskAngulation(
            PENTAGON, [Diagonal(2, 4), Diagonal(1, 4)]
        )

    def test_octagon_flip(self):
        assert octagon_fan().flip(Diagonal(1, 4)) == DiskAngulation(
            OCTAGON, [Diagonal(2, 5), Diagonal(1, 6)]
        )

    def test_flip_preserves_cardinality_and_validity(self):
        ang = octagon_fan()
        for d in ang.arcs:
            flipped = ang.flip(d)
            assert len(flipped.arcs) == OCTAGON.rank
            assert flipped.is_valid()

    def test_flip_inverse_via_counterclockwise_twist(self):
        # twist applied m more times inside the region is the inverse
        ang = octagon_fan()
        d = Diagonal(1, 4)
        region = merged_region(ang, d)
        back = ang.twist(d)
        for _ in range(OCTAGON.m):
            back = region_twist(region, back, OCTAGON.m)
        assert back == d

    def test_not_in_angulation(self):
        with pytest.raises(NotInAngulation):
            pentagon_fan().flip(Diagonal(2, 4))


def refuse(*args, **kwargs):
    raise AssertionError("built faces it did not need")


def table_cells(ang):
    """The twist table with each entry's face read from the entry's side:
    its vertices and sides rotated to start there."""
    return {
        key: (face.vertices[i:] + face.vertices[:i], face.sides[i:] + face.sides[:i])
        for key, (face, i) in ang._sides.items()
    }


def cells(faces):
    """Faces as a sorted list of cells, each read from its least rotation."""
    def rotations(f):
        for i in range(len(f)):
            yield (f.vertices[i:] + f.vertices[:i], f.sides[i:] + f.sides[:i])

    return sorted(repr(min(rotations(f))) for f in faces)


class TestTwistTable:
    """The face-local twist table gives the twist of the merged region,
    and the table a flip hands on equals the one built afresh."""

    @pytest.mark.parametrize("cfg", SMALL_DISKS, ids=repr)
    def test_twist_is_the_region_twist_on_every_angulation(self, cfg):
        _, found = enumerate_angulations(cfg, collect=True)
        for ang in found:
            for d in ang.arcs:
                assert ang.twist(d) == region_twist(merged_region(ang, d), d, cfg.m)

    @pytest.mark.parametrize("cfg", SMALL_DISKS, ids=repr)
    def test_merged_region_is_a_2m_plus_2_gon(self, cfg):
        # the two (m+2)-gons beside d share only d's endpoints
        _, found = enumerate_angulations(cfg, collect=True)
        for ang in found:
            for d in ang.arcs:
                region = merged_region(ang, d)
                assert len(region) == 2 * cfg.m + 2
                assert d.a in region and d.b in region

    @pytest.mark.parametrize("cfg", WALKED_DISKS, ids=repr)
    def test_twist_is_the_region_twist_along_walks(self, cfg):
        for ang, _ in random_walk(cfg, 40, 7):
            for d in ang.arcs:
                assert ang.twist(d) == region_twist(merged_region(ang, d), d, cfg.m)

    @pytest.mark.parametrize("cfg", WALKED_DISKS + SMALL_DISKS[-2:], ids=repr)
    def test_carried_table_equals_a_fresh_one(self, cfg):
        for step, (ang, _) in enumerate(random_walk(cfg, 40, 7)):
            # every walked angulation but the first is a flip result
            assert ("_sides" in vars(ang)) == (step > 0)
            fresh = DiskAngulation(cfg, ang.arcs)
            assert table_cells(ang) == table_cells(fresh)
            assert cells(ang.faces()) == cells(fresh.faces())

    @pytest.mark.parametrize("cfg", WALKED_DISKS, ids=repr)
    def test_one_flip_per_arc(self, cfg):
        for ang, _ in random_walk(cfg, 20, 7):
            fresh = DiskAngulation(cfg, ang.arcs)
            for d in ang.arcs:
                assert ang.flip(d) is ang.flip(d)
                assert ang.flip(d) == fresh.flip(d)
                assert cells(ang.flip(d).faces()) == cells(fresh.flip(d).faces())

    def test_quiver_read_once(self):
        ang = octagon_fan()
        assert ang.quiver_of() is ang.quiver_of()
        assert ang.quiver_of(list(ang.arcs)) == ang.quiver_of()


class TestCompletions:
    def test_pentagon(self):
        out = completions(PENTAGON, [Diagonal(1, 4)], Diagonal(1, 3))
        assert out == [Diagonal(2, 4), Diagonal(1, 3)]

    def test_octagon(self):
        out = completions(OCTAGON, [Diagonal(1, 6)], Diagonal(1, 4))
        assert out == [Diagonal(2, 5), Diagonal(3, 6), Diagonal(1, 4)]

    def test_rank_zero_rejected(self):
        with pytest.raises(InvalidAngulation):
            completions(DiskConfig(2, 4), [], Diagonal(1, 3))

    def test_removed_out_of_range_rejected(self):
        hexagon = DiskConfig(1, 6)
        with pytest.raises(IndexError):
            completions(hexagon, [Diagonal(1, 3), Diagonal(1, 4)], Diagonal(1, 60))

    def test_removed_not_m_diagonal_rejected(self):
        with pytest.raises(InvalidAngulation, match=r"\(1,3\) is not an m-diagonal"):
            completions(OCTAGON, [Diagonal(1, 6)], Diagonal(1, 3))

    @pytest.mark.parametrize("partial, removed, message", [
        ([(1, 3), (2, 5)], (1, 4),
         "(1,3) is not an m-diagonal; (1,3) crosses (2,5); (1,4) crosses (2,5)"),
        ([(1, 4), (1, 6), (1, 8)], (4, 7), "(1,6) crosses (4,7); 4 diagonals, expected 3"),
    ])
    def test_every_fault_named_as_violations_names_it(self, partial, removed, message):
        cfg = DiskConfig(2, 10)
        partial = [Diagonal(*d) for d in partial]
        removed = Diagonal(*removed)
        assert DiskAngulation(cfg, partial + [removed]).violations() == message.split("; ")
        with pytest.raises(InvalidAngulation) as exc:
            completions(cfg, partial, removed)
        assert str(exc.value) == message

    def test_flip_takes_the_first_completion(self):
        for cfg in (PENTAGON, OCTAGON, DiskConfig(3, 11)):
            _, angulations = enumerate_angulations(cfg, collect=True)
            for ang in angulations:
                for d in ang.arcs:
                    rest = [e for e in ang.arcs if e != d]
                    assert ang.twist(d) == completions(cfg, rest, d)[0]

    def test_matches_brute_force_scan(self):
        # independent oracle: scan every diagonal for compatibility
        for cfg in (PENTAGON, OCTAGON, DiskConfig(3, 11), DiskConfig(2, 10)):
            _, angulations = enumerate_angulations(cfg, collect=True)
            for ang in angulations:
                for d in ang.arcs:
                    rest = [e for e in ang.arcs if e != d]
                    out = completions(cfg, rest, d)
                    scan = {
                        c
                        for c in cfg.all_diagonals()
                        if c not in rest
                        and all(not crosses(c, e) for e in rest)
                    }
                    assert len(out) == cfg.m + 1
                    assert set(out) == scan
                    assert out[-1] == d
                    for c in out:
                        assert DiskAngulation(cfg, rest + [c]).is_valid()


class TestQuiverOf:
    def test_pentagon_fan_colors(self):
        q = pentagon_fan().quiver_of()
        assert dict(q.arrows()) == {(0, 1, 1): 1, (1, 0, 0): 1}

    def test_octagon_fan_colors(self):
        q = octagon_fan().quiver_of()
        assert dict(q.arrows()) == {(0, 1, 2): 1, (1, 0, 0): 1}

    def test_rank_zero_builds_no_face(self, monkeypatch):
        monkeypatch.setattr(disk, "split_regions", refuse)
        ang = DiskAngulation(DiskConfig(3, 5), [])
        assert ang.quiver_of() == ColoredQuiver(3, 0)

    def test_single_diagonal_no_arrows(self):
        q = initial_fan(DiskConfig(2, 6)).quiver_of()
        assert q.n == 1 and not list(q.arrows())

    def test_colors_on_shared_face_sum_to_m(self):
        for cfg in (PENTAGON, OCTAGON, DiskConfig(3, 14)):
            _, angulations = enumerate_angulations(cfg, collect=True)
            for ang in angulations:
                q = ang.quiver_of()
                assert q.is_valid()
                for (i, j, c), v in q.arrows():
                    assert q.mult(j, i, cfg.m - c) == v

    def test_three_diagonals_on_one_face(self):
        ang = DiskAngulation(
            DiskConfig(2, 10), [Diagonal(1, 4), Diagonal(4, 7), Diagonal(1, 8)]
        )
        q = ang.quiver_of()
        assert q.is_valid()
        # middle face (7,8)(8,1)(1,4)(4,7) links all three pairwise
        assert sum(v for _, v in q.arrows()) == 6

    def test_order_lists_every_diagonal_once(self):
        fan = initial_fan(DiskConfig(1, 6))  # (1,3), (1,4), (1,5)
        d13, d14, d15 = fan.arcs
        # on the fresh fan, which scans its diagonals, and on a flip result
        # flipped back, which holds its twist table
        for ang in (fan, fan.flip(d14).flip(Diagonal(3, 5))):
            assert ang == fan
            canonical, place = ang.quiver_of(), [1, 2, 0]
            assert ang.quiver_of([d15, d13, d14]) == ColoredQuiver(1, 3, {
                (place[i], place[j], c): v for (i, j, c), v in canonical.arrows()})
            for order in ([d13], [d13, d13, d15], [], [d13, d14, d15, d15]):
                with pytest.raises(ValueError, match="not a permutation of the diagonals"):
                    ang.quiver_of(order)
            with pytest.raises(NotInAngulation):
                ang.quiver_of([d13, d14, Diagonal(2, 5)])
            with pytest.raises(NotInAngulation):  # a plain tuple is no diagonal
                ang.quiver_of([(1, 3), (1, 4), (1, 5)])


class TestEars:
    def test_octagon(self):
        assert OCTAGON.is_m_ear(Diagonal(1, 4))
        assert OCTAGON.is_m_ear(Diagonal(1, 6))

    def test_hexagon_middle_chord_not_ear(self):
        assert not DiskConfig(1, 6).is_m_ear(Diagonal(1, 4))

    def test_every_angulation_has_an_ear(self):
        for cfg in (PENTAGON, OCTAGON, DiskConfig(3, 14)):
            _, angulations = enumerate_angulations(cfg, collect=True)
            for ang in angulations:
                assert any(cfg.is_m_ear(d) for d in ang.arcs)


class TestCutAlong:
    def test_octagon_piece_sizes(self):
        cut = cut_along(OCTAGON, Diagonal(1, 4))
        assert (cut.piece1.sides, cut.piece2.sides) == (4, 6)

    def test_ear_piece_has_rank_zero(self):
        cut = cut_along(OCTAGON, Diagonal(1, 4))
        assert cut.piece1.rank == 0

    def test_pentagon_transport(self):
        cut = cut_along(PENTAGON, Diagonal(1, 3))
        assert (cut.piece1.sides, cut.piece2.sides) == (3, 4)
        piece, local = cut.transport(Diagonal(1, 4))
        assert piece == 2
        assert cut.pull_back(piece, local) == Diagonal(1, 4)

    def test_transport_is_crossing_preserving_bijection(self):
        cfg = DiskConfig(2, 12)
        d = Diagonal(3, 8)
        cut = cut_along(cfg, d)
        others = [e for e in cfg.all_diagonals() if e != d and not crosses(e, d)]
        placed = {e: cut.transport(e) for e in others}
        # injective and piece-valid
        assert len(set(placed.values())) == len(others)
        for e, (piece, local) in placed.items():
            pc = cut.piece1 if piece == 1 else cut.piece2
            assert pc.is_m_diagonal(local)
            assert cut.pull_back(piece, local) == e
        # surjective onto the pieces' diagonals
        images1 = {loc for p, loc in placed.values() if p == 1}
        images2 = {loc for p, loc in placed.values() if p == 2}
        assert images1 == set(cut.piece1.all_diagonals())
        assert images2 == set(cut.piece2.all_diagonals())
        for e, f in itertools.combinations(others, 2):
            pe, le = placed[e]
            pf, lf = placed[f]
            same = crosses(le, lf) if pe == pf else False
            assert same == crosses(e, f)

    @pytest.mark.parametrize("cfg", DISK_MATRIX, ids=repr)
    def test_transport_inverts_the_piece_maps(self, cfg):
        # the label maps of the DiskCut docstring as tuples, and the inverse
        # of the piece-2 map as a dict, on every cut
        diagonals = cfg.all_diagonals()
        for d in diagonals:
            cut = cut_along(cfg, d)
            map1 = tuple(d.a + i - 1 for i in range(1, cut.piece1.sides + 1))
            map2 = tuple((d.b + i - 2) % cfg.sides + 1
                         for i in range(1, cut.piece2.sides + 1))
            inv2 = {g: i + 1 for i, g in enumerate(map2)}
            for e in diagonals:
                if e == d or crosses(e, d):
                    continue
                piece, local = cut.transport(e)
                if piece == 2:
                    assert local == Diagonal(inv2[e.a], inv2[e.b])
                else:
                    assert (map1[local.a - 1], map1[local.b - 1]) == (e.a, e.b)
                assert cut.pull_back(piece, local) == e

    def test_pull_back_of_an_octagon_cut(self):
        # piece 1 of the cut along (3,6) holds labels 3..6, piece 2 holds
        # 6, 7, 8, 1, 2, 3: its labels wrap past 8
        cut = cut_along(OCTAGON, Diagonal(3, 6))
        assert cut.pull_back(1, Diagonal(1, 4)) == Diagonal(3, 6)
        assert cut.pull_back(2, Diagonal(1, 4)) == Diagonal(1, 6)
        assert cut.pull_back(2, Diagonal(2, 5)) == Diagonal(2, 7)
        assert cut.transport(Diagonal(2, 7)) == (2, Diagonal(2, 5))

    def test_crossing_diagonal_rejected(self):
        cut = cut_along(OCTAGON, Diagonal(1, 4))
        with pytest.raises(ValueError):
            cut.transport(Diagonal(2, 5))


class TestEnumeration:
    def test_counts(self):
        assert enumerate_angulations(PENTAGON)[0] == 5
        assert enumerate_angulations(OCTAGON)[0] == 12
        # S = m + 2 leaves a single empty angulation; S = 4 already has two
        assert enumerate_angulations(DiskConfig(1, 3))[0] == 1
        assert enumerate_angulations(DiskConfig(1, 4))[0] == 2

    def test_collect_returns_valid_angulations(self):
        count, angulations = enumerate_angulations(OCTAGON, collect=True)
        assert count == len(angulations) == 12
        assert all(a.is_valid() for a in angulations)
        assert len(set(angulations)) == 12

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            enumerate_angulations(DiskConfig(1, 30), guard=5)

    def test_maximal_sets_all_have_rank_size(self):
        assert maximal_set_sizes(PENTAGON) == {2: 5}
        assert maximal_set_sizes(OCTAGON) == {2: 12}
        assert maximal_set_sizes(DiskConfig(3, 11)) == {2: 22}


class TestAgainstReferences:
    """The crossing-bitmask oracles and the key-first BFS give exactly what
    the list-based ones they replaced give."""

    @pytest.mark.parametrize("cfg", DISK_MATRIX, ids=repr)
    def test_enumeration_and_maximal_sets(self, cfg):
        count, found = enumerate_angulations(cfg, collect=True)
        reference = reference_enumerate(cfg)
        assert count == len(reference) == enumerate_angulations(cfg)[0]
        assert [a.arcs for a in found] == [a.arcs for a in reference]
        assert maximal_set_sizes(cfg) == reference_maximal_set_sizes(cfg)

    # the reference BFS takes seconds on the 7,084 angulations of m=3, S=20
    @pytest.mark.parametrize("cfg", [c for c in DISK_MATRIX if c.sides <= 17], ids=repr)
    def test_flip_graph(self, cfg):
        graph = flip_graph(cfg)
        order, edges = reference_flip_graph(cfg)
        assert [a.arcs for a in graph.nodes] == [a.arcs for a in order]
        assert graph.edges == edges


class TestFlipGraph:
    def test_pentagon_is_five_cycle(self):
        g = flip_graph(PENTAGON)
        assert len(g.nodes) == 5 and len(g.edges) == 5
        assert g.is_connected()
        degree = {i: 0 for i in range(5)}
        for e in g.edges:
            for v in e:
                degree[v] += 1
        assert set(degree.values()) == {2}

    def test_octagon(self):
        g = flip_graph(OCTAGON)
        assert len(g.nodes) == 12 and g.is_connected()

    def test_trivial(self):
        g = flip_graph(DiskConfig(1, 3))
        assert len(g.nodes) == 1 and not g.edges and g.is_connected()

    def test_dot_output(self):
        dot = flip_graph(PENTAGON).to_dot()
        assert dot.startswith("graph") and dot.count("--") == 5


class TestSerialization:
    def test_round_trip(self):
        ang = octagon_fan().flip(Diagonal(1, 4))
        data = json.loads(json.dumps(ang.to_json_dict()))
        assert DiskAngulation.from_json_dict(data) == ang

    def test_schema_fields(self):
        data = pentagon_fan().to_json_dict()
        assert data == {
            "type": "disk",
            "m": 1,
            "sides": 5,
            "diagonals": [[1, 3], [1, 4]],
        }
