import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from angulator.faces import Face, quiver_from_faces
from angulator.quiver import (
    ColoredQuiver,
    PlainQuiver,
    VertexRangeError,
    Violation,
    json_int,
)


def minimal_pair(m=2):
    return ColoredQuiver(m, 2, {(0, 1, 0): 1, (1, 0, m): 1})


def colour_bounds(max_m):
    """Mostly small m, and up to max_m so that colours wrap around."""
    return st.integers(1, 3) | st.integers(1, max_m)


@st.composite
def valid_quivers(draw, max_m=3):
    """Arbitrary quivers satisfying the three axioms."""
    m = draw(colour_bounds(max_m))
    n = draw(st.integers(1, 4))
    arrows = {}
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            c = draw(st.integers(0, m))
            v = draw(st.integers(1, 2))
            arrows[(i, j, c)] = v
            arrows[(j, i, m - c)] = v
    return ColoredQuiver(m, n, arrows)


@st.composite
def any_quivers(draw, max_m=3):
    """Arbitrary arrow sets: loops, clashing colors and unpaired arrows."""
    m = draw(colour_bounds(max_m))
    n = draw(st.integers(1, 5))
    keys = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, m))
    arrows = draw(st.dictionaries(keys, st.integers(1, 3), max_size=3 * n))
    return ColoredQuiver(m, n, arrows)


def dense_mutate(q, k):
    """The closed formula evaluated at every ordered pair: the reference
    the sparse ``ColoredQuiver.mutate`` must match."""
    mm = q.m + 1
    new = {}
    for i in range(q.n):
        for j in range(q.n):
            if i == j:
                continue
            if i == k:
                for c in range(mm):
                    v = q.mult(i, j, c + 1)
                    if v:
                        new[(i, j, c)] = v
            elif j == k:
                for c in range(mm):
                    v = q.mult(i, j, c - 1)
                    if v:
                        new[(i, j, c)] = v
            else:
                total = sum(q.mult(i, j, t) for t in range(mm))
                for c in range(mm):
                    v = (
                        q.mult(i, j, c)
                        - (total - q.mult(i, j, c))
                        + (q.mult(i, k, c) - q.mult(i, k, c - 1)) * q.mult(k, j, 0)
                        + q.mult(i, k, q.m) * (q.mult(k, j, c) - q.mult(k, j, c + 1))
                    )
                    if v > 0:
                        new[(i, j, c)] = v
    return ColoredQuiver(q.m, q.n, new)


def reference_validate(q):
    """The three sorted passes the one-pass ``validate`` must match."""
    out = []
    for (i, j, c), v in sorted(q.arrows()):
        if i == j and v:
            out.append(Violation("loop", (i, j, c)))
    pair_colors = {}
    for (i, j, c), v in q.arrows():
        if i != j and v:
            pair_colors.setdefault((i, j), []).append(c)
    for (i, j), colors in sorted(pair_colors.items()):
        if len(colors) > 1:
            out.append(Violation("monochromaticity", (i, j)))
    seen = set()
    for (i, j, c), _ in sorted(q.arrows()):
        if i == j or (i, j, c) in seen:
            continue
        seen.add((j, i, (q.m - c) % (q.m + 1)))
        if q.mult(i, j, c) != q.mult(j, i, q.m - c):
            out.append(Violation("symmetry", (i, j, c)))
    return out


def reference_from_json_dict(data):
    """The reader the one-pass ``from_json_dict`` must match, exception for
    exception."""
    arrows = {}
    for a in data["arrows"]:
        key = tuple(json_int(a[f], f) for f in ("from", "to", "color"))
        arrows[key] = arrows.get(key, 0) + json_int(a.get("mult", 1), "mult")
    return ColoredQuiver(json_int(data["m"], "m"), json_int(data["vertices"], "vertices"),
                         arrows)


# values json_int refuses (floats, booleans) or the constructor does
# (negative, out of range), drawn in place of a small integer now and then
odd_values = st.sampled_from([-1, 5, 9, 0.0, 1.0, 2.5, True, False])


@st.composite
def quiver_records(draw):
    """``to_json_dict``-like records: repeated arrows, arrows out of range
    and, now and then, a field missing, of the wrong type or negative."""

    def value():
        return draw(odd_values) if draw(st.integers(0, 19)) == 0 else draw(st.integers(0, 3))

    def drop_one(record):
        if draw(st.integers(0, 19)) == 0:
            del record[draw(st.sampled_from(sorted(record)))]
        return record

    arrows = []
    for _ in range(draw(st.integers(0, 6))):
        arrow = {f: value() for f in ("from", "to", "color")}
        if draw(st.booleans()):
            arrow["mult"] = value()
        arrows.append(drop_one(arrow))
    return drop_one({"m": value(), "vertices": value(), "arrows": arrows})


def outcome(read, record):
    try:
        q = read(record)
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)
    return q, q.validate()


def assert_as_if_checked(q):
    """``q`` equals and hashes as its arrows read back through the public
    constructor, and holds no zero multiplicity."""
    fresh = ColoredQuiver(q.m, q.n, dict(q.arrows()))
    assert q == fresh and hash(q) == hash(fresh)
    assert all(v > 0 for _, v in q.arrows())


class TestBoundaryChecks:
    @given(any_quivers(max_m=40))
    @settings(max_examples=300)
    def test_validate_matches_the_reference(self, q):
        assert q.validate() == reference_validate(q)

    @given(quiver_records())
    @settings(max_examples=500)
    def test_from_json_dict_matches_the_reference(self, record):
        assert outcome(ColoredQuiver.from_json_dict, record) == \
            outcome(reference_from_json_dict, record)

    def test_from_json_dict_adds_repeated_arrows_before_checking(self):
        arrows = [{"from": 0, "to": 1, "color": 0, "mult": 2},
                  {"from": 0, "to": 1, "color": 0, "mult": -1},
                  {"from": 0, "to": 9, "color": 0, "mult": 0}]
        q = ColoredQuiver.from_json_dict({"m": 1, "vertices": 2, "arrows": arrows})
        assert dict(q.arrows()) == {(0, 1, 0): 1}

    @given(any_quivers(max_m=40), st.integers(0, 4))
    @settings(max_examples=200)
    def test_mutation_results_as_if_checked(self, q, k):
        assert_as_if_checked(q.mutate(k % q.n))
        assert_as_if_checked(q.mutate_procedural(k % q.n))
        assert_as_if_checked(q.mutate_inverse(k % q.n))

    def test_face_quivers_as_if_checked(self):
        from angulator.annulus import AnnulusConfig
        from angulator.disk import DiskConfig
        from angulator.verify import random_walk

        for cfg in (DiskConfig(1, 9), DiskConfig(3, 17), AnnulusConfig(1, 2, 2),
                    AnnulusConfig(2, 4, 3)):
            for ang, _ in random_walk(cfg, 8, 2):
                q = ang.quiver_of()
                assert_as_if_checked(q)
                assert_as_if_checked(ang.quiver_of(ang.arcs[::-1]))

    def test_face_quiver_rejects_a_face_that_is_no_m_plus_2_gon(self):
        # the square would give the colour 2 at m = 1
        triangle = Face((1, 2, 3), ("x", "e", "y"))
        square = Face((1, 2, 3, 4), ("x", "e", "f", "y"))
        with pytest.raises(ValueError, match=r"\(1, 2, 3, 4\) has 4 sides, expected 3"):
            quiver_from_faces(1, 2, {"x": 0, "y": 1}, [triangle, square])

    def test_face_quiver_rejects_a_vertex_out_of_range(self):
        triangle = Face((1, 2, 3), ("x", "e", "y"))
        with pytest.raises(VertexRangeError, match=r"vertex 5 outside 0\.\.1"):
            quiver_from_faces(1, 2, {"x": 0, "y": 5}, [triangle])
        with pytest.raises(VertexRangeError, match=r"vertex -1 outside 0\.\.1"):
            quiver_from_faces(1, 2, {"x": -1, "y": 1}, [triangle])

    def test_equality_reads_m_n_and_arrows(self):
        q = minimal_pair(2)
        assert q != minimal_pair(3)
        assert ColoredQuiver(2, 2) != ColoredQuiver(2, 3)
        assert ColoredQuiver(1, 2) != ColoredQuiver(2, 2)
        assert q != ColoredQuiver(2, 2, {(0, 1, 0): 2, (1, 0, 2): 1})
        assert q != dict(q.arrows())


class TestValidate:
    def test_minimal_symmetric_pair_is_valid(self):
        assert minimal_pair().validate() == []

    def test_loop_violation(self):
        q = ColoredQuiver(1, 1, {(0, 0, 0): 1})
        violations = q.validate()
        assert [(v.axiom, v.site) for v in violations] == [("loop", (0, 0, 0))]

    def test_monochromaticity_violation(self):
        q = ColoredQuiver(1, 2, {(0, 1, 0): 1, (0, 1, 1): 1})
        mono = [v for v in q.validate() if v.axiom == "monochromaticity"]
        assert [v.site for v in mono] == [(0, 1)]

    def test_symmetry_violation(self):
        q = ColoredQuiver(2, 2, {(0, 1, 0): 1, (1, 0, 1): 1})
        axioms = {v.axiom for v in q.validate()}
        assert axioms == {"symmetry"}


class TestMutate:
    def test_path_middle_vertex_m1(self):
        # classical mutation of the A3 path at its middle vertex
        q = ColoredQuiver(
            1, 3, {(0, 1, 0): 1, (1, 0, 1): 1, (1, 2, 0): 1, (2, 1, 1): 1}
        )
        expected = ColoredQuiver(
            1,
            3,
            {(1, 0, 0): 1, (0, 1, 1): 1, (2, 1, 0): 1, (1, 2, 1): 1,
             (0, 2, 0): 1, (2, 0, 1): 1},
        )
        assert q.mutate(1) == expected

    def test_arrowless_fixed_point(self):
        q = ColoredQuiver(2, 3)
        assert q.mutate(0) == q
        assert q.mutate_procedural(1) == q
        assert q.mutate_inverse(2) == q

    def test_two_vertex_m2_period_three(self):
        # the incident color shift direction is pinned by the flip
        # compatibility suite: arrows out of k drop a color, into k gain one
        q = ColoredQuiver(2, 2, {(0, 1, 0): 1, (1, 0, 2): 1})
        step = q.mutate(0)
        assert step == ColoredQuiver(2, 2, {(0, 1, 2): 1, (1, 0, 0): 1})
        assert step.mutate(0).mutate(0) == q

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexRangeError):
            minimal_pair().mutate(5)
        with pytest.raises(VertexRangeError):
            minimal_pair().mutate_procedural(-1)

    @given(valid_quivers(), st.integers(0, 3))
    @settings(max_examples=200)
    def test_no_loops_and_symmetry_always_survive(self, q, k):
        # monochromaticity and the m+1 period can break on quivers that do
        # not come from angulations; these two axioms never do
        mutated = q.mutate(k % q.n)
        axioms = {v.axiom for v in mutated.validate()}
        assert "loop" not in axioms
        assert "symmetry" not in axioms


    @given(any_quivers(max_m=40), st.integers(0, 4))
    @settings(max_examples=300)
    def test_sparse_matches_dense_on_any_quiver(self, q, k):
        assert q.mutate(k % q.n) == dense_mutate(q, k % q.n)

    @given(valid_quivers(max_m=40), st.integers(0, 3))
    @settings(max_examples=100)
    def test_sparse_matches_dense_on_valid_quivers(self, q, k):
        assert q.mutate(k % q.n) == dense_mutate(q, k % q.n)

    def test_sparse_matches_dense_on_angulation_quivers(self):
        from angulator.annulus import AnnulusConfig
        from angulator.disk import DiskConfig
        from angulator.verify import random_walk

        for cfg in (DiskConfig(2, 14), AnnulusConfig(2, 4, 3)):
            for ang, _ in random_walk(cfg, 10, 4):
                q = ang.quiver_of()
                for k in range(q.n):
                    assert q.mutate(k) == dense_mutate(q, k)


class TestMutateMemo:
    """A quiver never changes, so it computes ``mutate(k)`` once per k."""

    @given(valid_quivers(max_m=6), st.integers(0, 3))
    @settings(max_examples=100)
    def test_one_object_per_vertex_equal_to_a_fresh_mutation(self, q, k):
        k %= q.n
        first = q.mutate(k)
        assert q.mutate(k) is first
        fresh = ColoredQuiver.from_json_dict(q.to_json_dict()).mutate(k)
        assert fresh is not first
        assert fresh == first == dense_mutate(q, k)

    def test_kept_mutations_agree_with_the_procedure(self):
        # the procedure agrees with the formula on the quivers of
        # angulations, not on every valid quiver
        from angulator.annulus import AnnulusConfig
        from angulator.disk import DiskConfig
        from angulator.verify import random_walk

        for cfg in (DiskConfig(2, 14), AnnulusConfig(1, 2, 2), AnnulusConfig(2, 4, 3)):
            for ang, _ in random_walk(cfg, 10, 4):
                q = ang.quiver_of()
                for k in range(q.n):
                    first = q.mutate(k)
                    assert q.mutate(k) is first
                    assert first == q.mutate_procedural(k)

    def test_a_refused_vertex_stays_refused(self):
        q = minimal_pair()
        for _ in range(2):
            with pytest.raises(VertexRangeError):
                q.mutate(5)

    def test_inverse_keeps_no_quiver_on_the_way(self):
        # through the memo of mutate, each of the m - 1 quivers on the way
        # would stay reachable from the one before: some 14 MB at this m
        m = 20_000
        q = ColoredQuiver(m, 2, {(0, 1, 0): 1, (1, 0, m): 1})
        tracemalloc.start()
        try:
            inverse = q.mutate_inverse(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert inverse.mutate(0) == q


class TestMutateInverse:
    def test_involution_at_m1(self):
        q = ColoredQuiver(
            1, 3, {(0, 1, 0): 1, (1, 0, 1): 1, (1, 2, 0): 1, (2, 1, 1): 1}
        )
        assert q.mutate_inverse(1) == q.mutate(1)

    def test_two_vertex_m2(self):
        q = ColoredQuiver(2, 2, {(0, 1, 1): 1, (1, 0, 1): 1})
        assert q.mutate_inverse(0) == q.mutate(0).mutate(0)
        assert q.mutate(0).mutate_inverse(0) == q
        assert q.mutate_inverse(0).mutate(0) == q


class TestProcedural:
    def test_agrees_on_path_example(self):
        q = ColoredQuiver(
            1, 3, {(0, 1, 0): 1, (1, 0, 1): 1, (1, 2, 0): 1, (2, 1, 1): 1}
        )
        assert q.mutate_procedural(1) == q.mutate(1)

    def test_agrees_on_two_vertex_m2(self):
        q = ColoredQuiver(2, 2, {(0, 1, 0): 1, (1, 0, 2): 1})
        assert q.mutate_procedural(0) == q.mutate(0)

    def test_step_one_composes_multiplicities(self):
        # 0 -(1)-> 1 -(0)-> 2 with multiplicity 2 on the second leg
        q = ColoredQuiver(
            2,
            3,
            {(0, 1, 1): 1, (1, 0, 1): 1, (1, 2, 0): 2, (2, 1, 2): 2},
        )
        assert q.mutate_procedural(1) == q.mutate(1)

    def test_does_not_call_the_formula(self, monkeypatch):
        q = ColoredQuiver(
            1, 3, {(0, 1, 0): 1, (1, 0, 1): 1, (1, 2, 0): 1, (2, 1, 1): 1}
        )
        expected = q.mutate(1)

        def formula(*_):
            raise AssertionError("mutate_procedural called mutate")

        monkeypatch.setattr(ColoredQuiver, "mutate", formula)
        monkeypatch.setattr(ColoredQuiver, "_mutated", formula)
        assert q.mutate_procedural(1) == expected


class TestGabriel:
    def test_minimal_pair(self):
        assert minimal_pair().gabriel() == PlainQuiver(2, (((0, 1), 1),))

    def test_only_color_zero_arrows_survive(self):
        q = ColoredQuiver(2, 2, {(0, 1, 1): 1, (1, 0, 1): 1})
        assert q.gabriel() == PlainQuiver(2, ())

    def test_multiplicity_preserved(self):
        q = ColoredQuiver(1, 2, {(0, 1, 0): 2, (1, 0, 1): 2})
        assert q.gabriel().mult(0, 1) == 2

    @given(valid_quivers())
    @settings(max_examples=100)
    def test_at_most_one_direction_per_pair(self, q):
        pq = q.gabriel()
        for (i, j), v in pq.arrows:
            assert v and pq.mult(j, i) == 0


class TestSerialization:
    def test_json_round_trip(self):
        q = ColoredQuiver(2, 3, {(0, 1, 0): 1, (1, 0, 2): 1, (1, 2, 1): 2, (2, 1, 1): 2})
        data = json.loads(json.dumps(q.to_json_dict()))
        assert ColoredQuiver.from_json_dict(data) == q

    def test_json_arrows_canonically_ordered(self):
        q = ColoredQuiver(1, 3, {(2, 0, 1): 1, (0, 2, 0): 1})
        keys = [(a["from"], a["to"], a["color"]) for a in q.to_json_dict()["arrows"]]
        assert keys == sorted(keys)

    def test_dot_contains_labels_and_penwidth(self):
        q = ColoredQuiver(1, 2, {(0, 1, 0): 2, (1, 0, 1): 2})
        dot = q.to_dot()
        assert 'label="(0)"' in dot and "penwidth=2" in dot
        assert dot.startswith("digraph")

    @given(valid_quivers())
    @settings(max_examples=50)
    def test_round_trip_any(self, q):
        assert ColoredQuiver.from_json_dict(q.to_json_dict()) == q


class TestEquality:
    def test_structural_equality_is_bit_exact(self):
        a = ColoredQuiver(1, 2, {(0, 1, 0): 1, (1, 0, 1): 1})
        b = ColoredQuiver(1, 2, [((1, 0, 1), 1), ((0, 1, 0), 1)])
        assert a == b and hash(a) == hash(b)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            minimal_pair().m = 3
