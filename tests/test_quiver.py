import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from angulator.quiver import ColoredQuiver, PlainQuiver, VertexRangeError


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
