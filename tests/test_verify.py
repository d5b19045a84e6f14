import copy
import json
import random

import pytest

from angulator.annulus import (
    AnnulusAngulation,
    AnnulusConfig,
    UnsupportedFlip,
    initial_bridges,
)
from angulator import annulus, disk, faces, verify
from angulator.faces import split_regions
from angulator.disk import (
    Diagonal,
    DiskAngulation,
    DiskConfig,
    NotInAngulation,
    enumerate_angulations,
    flip_graph,
    initial_fan,
    maximal_set_sizes,
)
from angulator.quiver import ColoredQuiver, PlainQuiver
from angulator.verify import (
    ANNULUS_MATRIX,
    DiskOracles,
    VerificationReport,
    check_annulus_maximal,
    check_axioms,
    check_connectivity,
    check_counts,
    check_cut_transport,
    check_flip_cycle,
    check_flip_mutation,
    check_gabriel,
    fuss_catalan,
    is_linear_path,
    random_walk,
    run_suite,
)
from regions import merged_region

PENTAGON = DiskConfig(1, 5)
WALKED_DISKS = [DiskConfig(1, 9), DiskConfig(2, 14), DiskConfig(3, 17)]


def all_disk_cases(cfg):
    """Every (angulation, diagonal) pair of a configuration."""
    return [(a, d) for a in enumerate_angulations(cfg, collect=True)[1] for d in a.arcs]


class TestReport:
    def test_pass_flag_mirrors_failures(self):
        report = VerificationReport("demo")
        report.check(True, "ok")
        assert report.passed and report.cases == 1
        report.check(False, "bad", expected=1, actual=2)
        assert not report.passed
        assert report.failures[0].fingerprint == "bad"

    def test_json_shape(self):
        report = VerificationReport("demo")
        report.check(False, "case", "x", "y")
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["suite"] == "demo" and data["passed"] is False
        assert data["failures"] == [{"input": "case", "expected": "x", "actual": "y"}]
        assert "elapsed" in data
        assert "elapsed" not in report.to_json_dict(include_elapsed=False)


class TestFussCatalan:
    def test_values(self):
        assert fuss_catalan(1, 3) == 5
        assert fuss_catalan(2, 3) == 12
        assert fuss_catalan(3, 3) == 22
        assert fuss_catalan(1, 5) == 42
        assert fuss_catalan(3, 4) == 140


class TestLinearPath:
    def test_paths(self):
        assert is_linear_path(PlainQuiver(1, ()))
        assert is_linear_path(PlainQuiver(3, (((1, 0), 1), ((2, 1), 1))))
        assert not is_linear_path(PlainQuiver(3, (((0, 1), 1), ((0, 2), 1))))
        assert not is_linear_path(PlainQuiver(3, (((0, 1), 2),)))
        assert not is_linear_path(PlainQuiver(2, (((0, 1), 1), ((1, 0), 1))))


class TestWalks:
    def test_deterministic(self):
        a = [(repr(ang), repr(arc)) for ang, arc in random_walk(PENTAGON, 30, 5)]
        b = [(repr(ang), repr(arc)) for ang, arc in random_walk(PENTAGON, 30, 5)]
        assert a == b
        c = [(repr(ang), repr(arc)) for ang, arc in random_walk(PENTAGON, 30, 6)]
        assert a != c

    def test_zero_steps(self):
        assert list(random_walk(PENTAGON, 0, 1)) == []

    def test_every_emitted_angulation_valid(self):
        for cfg in (DiskConfig(2, 10), AnnulusConfig(1, 2, 2), AnnulusConfig(2, 4, 3)):
            for ang, arc in random_walk(cfg, 60, 3):
                assert ang.is_valid()
                assert arc in ang.arcs

    def test_annulus_walk_avoids_unsupported_positions(self):
        for ang, arc in random_walk(AnnulusConfig(1, 2, 1), 40, 0):
            ang.flip(arc)  # must not raise

    @pytest.mark.parametrize("cfg", ANNULUS_MATRIX, ids=repr)
    def test_walk_draws_as_in_normal_form(self, cfg):
        # the walk keeps the windings its flips give: it draws the arc of
        # the same index as a walk rebased at every step, and its
        # angulations rebase to that walk's
        drifted = 0
        for seed in (0, 1):
            reference = rebasing_walk(cfg, 200, seed)
            for (ang, arc), (ref, ref_arc) in zip(random_walk(cfg, 200, seed), reference,
                                                  strict=True):
                assert ang.arcs.index(arc) == ref.arcs.index(ref_arc)
                assert ang.rebased() == ref
                drifted += ang != ref
        assert drifted


def rebasing_walk(cfg, steps, seed):
    """``random_walk`` on an annulus as it was with a normal form: every
    step rebased to minimum winding zero."""
    rng = random.Random(seed)
    ang = initial_bridges(cfg)
    for _ in range(steps):
        flippable = [a for a in ang.arcs if ang.can_flip(a)]
        arc = flippable[rng.randrange(len(flippable))]
        yield ang, arc
        ang = ang.flip(arc).rebased()


def flip_outcome(ang, arc):
    try:
        return ang.flip(arc)
    except UnsupportedFlip as exc:
        return str(exc)


def cells(faces):
    """Faces as a sorted list of cells, each read from its least rotation:
    a flipped angulation lists its faces in another order than a fresh one."""
    def rotations(f):
        for i in range(len(f)):
            yield repr((f.vertices[i:] + f.vertices[:i], f.sides[i:] + f.sides[:i]))

    return sorted(min(rotations(f)) for f in faces)


class TestWalkCaches:
    """A walked angulation carries faces, validity and (on the annulus)
    cut views from its parent and from earlier calls; none of that may
    change what it answers."""

    @pytest.mark.parametrize("cfg", ANNULUS_MATRIX, ids=repr)
    def test_walked_object_answers_like_a_fresh_one(self, cfg):
        for ang, arc in random_walk(cfg, 12, 7):
            fresh = AnnulusAngulation(cfg, ang.arcs)
            for a in ang.arcs:
                assert flip_outcome(ang, a) == flip_outcome(fresh, a)
            assert ang.quiver_of() == fresh.quiver_of()
            for ref in ang.bridges():
                assert cells(ang.faces(ref)) == cells(fresh.faces(ref))

    @pytest.mark.parametrize("cfg", WALKED_DISKS, ids=repr)
    def test_flipped_disk_carries_the_faces_of_a_fresh_one(self, cfg):
        for ang, arc in random_walk(cfg, 30, 7):
            fresh = DiskAngulation(cfg, ang.arcs)
            assert cells(ang.faces()) == cells(fresh.faces())
            assert ang.quiver_of() == fresh.quiver_of()
            assert ang.flip(arc) == fresh.flip(arc)

    @pytest.mark.parametrize("cfg", ANNULUS_MATRIX, ids=repr)
    def test_flippable_set_equals_trial_flips(self, cfg):
        for ang, _ in random_walk(cfg, 25, 2):
            trial = [a for a in ang.arcs if not isinstance(flip_outcome(ang, a), str)]
            assert [a for a in ang.arcs if ang.can_flip(a)] == trial


def least_bridge_flip(ang, x):
    """What flip(x) gives, worked out afresh in the cut along the least
    bridge other than x: the new arc, or the refusal's message."""
    cfg = ang.config
    ref = min(b for b in ang.bridges() if b != x)
    cut = annulus.BridgeCut(cfg, ref)
    local = DiskAngulation(cut.disk, [cut.to_disk(a) for a in ang.arcs if a != ref])
    try:
        return cut.from_disk(local.twist(cut.to_disk(x)))
    except UnsupportedFlip as exc:
        return str(exc)


class TestIncrementalWalks:
    """A walk step reuses what the angulation holds: one flip result per
    (angulation, arc), the canonical quiver, and on the annulus the cut it
    inherited.  None of that may change an answer."""

    @pytest.mark.parametrize("cfg", ANNULUS_MATRIX, ids=repr)
    def test_inherited_view_flips_like_the_least_bridge_view(self, cfg):
        other_view = 0
        for ang, arc in random_walk(cfg, 25, 1):
            # the walked object and the flip result the walk steps to
            for obj in (ang, ang.flip(arc)):
                for x in obj.arcs:
                    outcome = flip_outcome(obj, x)
                    if isinstance(outcome, str):
                        assert outcome == least_bridge_flip(obj, x)
                        continue
                    (new,) = set(outcome.arcs) - set(obj.arcs)
                    assert new == least_bridge_flip(obj, x)
                    (used,) = outcome._views
                    least = min(b for b in obj.bridges() if b != x)
                    other_view += used != least
        # some flip used a view that is not the least-bridge one; with two
        # arcs the one bridge left is the least, and the rank-3 walk here
        # keeps a least bridge in its view
        assert other_view or cfg.rank <= 3

    @pytest.mark.parametrize("cfg", ANNULUS_MATRIX, ids=repr)
    def test_one_flip_per_arc(self, cfg):
        for ang, _ in random_walk(cfg, 12, 4):
            fresh = AnnulusAngulation(cfg, ang.arcs)
            for x in ang.arcs:
                if ang.can_flip(x):
                    assert ang.flip(x) is ang.flip(x)
                    assert ang.flip(x) == fresh.flip(x)
            assert ang.quiver_of() is ang.quiver_of()

    @pytest.mark.parametrize("cfg", WALKED_DISKS + ANNULUS_MATRIX, ids=repr)
    def test_checks_reuse_the_walk_flips(self, monkeypatch, cfg):
        cls = DiskAngulation if isinstance(cfg, DiskConfig) else AnnulusAngulation
        raw, computed = cls.flip.__wrapped__, []

        def record(ang, x):
            computed.append((ang, x))
            return raw(ang, x)

        monkeypatch.setattr(cls, "flip", disk.once_per_arc(record))
        cases = list(random_walk(cfg, 12, 4))
        assert len(computed) == 12
        assert check_flip_mutation(cases).passed
        assert len(computed) == 12
        assert check_flip_cycle(cases).passed
        # the cycles flip anew, but never a case's own position, and never
        # one position twice
        cycle = computed[12:]
        assert cycle
        assert not any(obj is ang and x == arc for obj, x in cycle for ang, arc in cases)
        assert len({(id(obj), x) for obj, x in cycle}) == len(cycle)

    @pytest.mark.parametrize("cfg", WALKED_DISKS + ANNULUS_MATRIX, ids=repr)
    def test_compat_reads_each_quiver_once_and_mutates_it_once(self, monkeypatch, cfg):
        calls, read, mutated = {}, [], []

        def logged(log, fn):
            def wrapper(obj, *args):
                log.append((obj, *args))
                return fn(obj, *args)
            return wrapper

        for module in (disk, annulus):
            monkeypatch.setattr(module, "quiver_from_faces",
                                counted(calls, "faces", faces.quiver_from_faces))
        for cls in (DiskAngulation, AnnulusAngulation):
            monkeypatch.setattr(cls, "_read_quiver", logged(read, cls._read_quiver))
        monkeypatch.setattr(ColoredQuiver, "_mutated", logged(mutated, ColoredQuiver._mutated))
        is_disk = isinstance(cfg, DiskConfig)
        monkeypatch.setattr(verify, "DISK_MATRIX", [cfg] if is_disk else [])
        monkeypatch.setattr(verify, "ANNULUS_MATRIX", [] if is_disk else [cfg])
        assert all(report.passed for report in run_suite("compat", 4, steps=12))
        # the 12 walked angulations and the last flip result, each read
        # from its faces once; each walked quiver mutated once, at one vertex
        assert calls == {"faces": 13} and len(read) == 13
        assert len({id(obj) for obj, in read}) == 13
        assert len(mutated) == 12
        assert len({id(q) for q, _ in mutated}) == 12

    @pytest.mark.parametrize("cfg", WALKED_DISKS + ANNULUS_MATRIX, ids=repr)
    def test_quiver_in_an_order_is_the_faces_read_in_that_order(self, cfg):
        rng = random.Random(6)
        for ang, arc in random_walk(cfg, 12, 6):
            for obj in (ang, ang.flip(arc)):
                order = rng.sample(obj.arcs, len(obj.arcs))
                vertex = {a: i for i, a in enumerate(order)}
                assert obj.quiver_of(order) == faces.quiver_from_faces(
                    cfg.m, len(order), vertex, obj.faces())

    @pytest.mark.parametrize("cfg", ANNULUS_MATRIX, ids=repr)
    def test_can_flip_twist_and_flip_share_one_twist(self, monkeypatch, cfg):
        calls = {}
        monkeypatch.setattr(DiskAngulation, "twist",
                            counted(calls, "twist", DiskAngulation.twist))
        for ang, _ in list(random_walk(cfg, 6, 5)):
            fresh = AnnulusAngulation(cfg, ang.arcs)
            for x in fresh.arcs:
                calls.clear()
                fresh.can_flip(x)
                outcome = flip_outcome(fresh, x)
                if isinstance(outcome, str):  # refused, and the twist alike
                    with pytest.raises(UnsupportedFlip):
                        fresh.twist(x)
                else:
                    (new,) = set(outcome.arcs) - set(fresh.arcs)
                    assert fresh.twist(x) == new
                # the cut view's disk twists x once; m >= 2 needs no twist
                # to say that x can flip
                assert calls == {"twist": 1}

    @pytest.mark.parametrize("cfg", ANNULUS_MATRIX, ids=repr)
    def test_bridge_cut_check_reuses_the_walk_flip(self, monkeypatch, cfg):
        calls = {}
        monkeypatch.setattr(AnnulusAngulation, "flip", disk.once_per_arc(
            counted(calls, "flip", AnnulusAngulation.flip.__wrapped__)))
        cases = list(random_walk(cfg, 12, 4))
        # the check reads every new arc from twist and flips nothing
        assert check_cut_transport(cfg, cases).passed
        assert calls == {"flip": 12}

    @pytest.mark.parametrize("cfg", [c for c in ANNULUS_MATRIX if c.m >= 2], ids=repr)
    def test_can_flip_every_arc_without_a_cut(self, monkeypatch, cfg):
        for ang, _ in random_walk(cfg, 25, 2):
            with monkeypatch.context() as patch:
                patch.setattr(annulus, "BridgeCut", refuse)
                assert all(ang.can_flip(a) for a in ang.arcs)
            for a in ang.arcs:
                ang.flip(a)  # must not raise


class TestTwist:
    """``twist(x)`` is the arc that ``flip(x)`` puts in x's place, on both
    models, without building the flipped angulation."""

    @pytest.mark.parametrize("cfg", WALKED_DISKS + ANNULUS_MATRIX, ids=repr)
    def test_twist_is_the_new_arc_of_the_flip(self, cfg):
        refused = 0
        for ang, arc in random_walk(cfg, 25, 3):
            # the walked object and the flip result the walk steps to
            for obj in (ang, ang.flip(arc)):
                for x in obj.arcs:
                    try:
                        new = obj.twist(x)
                    except UnsupportedFlip:
                        # refused exactly where can_flip is False
                        refused += 1
                        assert not obj.can_flip(x)
                        continue
                    assert obj.can_flip(x)
                    assert new == verify._new_arc(obj, obj.flip(x))
        # only m = 1 annuli with p or q >= 2 have positions outside the model
        assert bool(refused) == (cfg in ANNULUS_MATRIX and cfg.m == 1 and cfg.rank > 2)


def flip_chains(cfg, steps, seed):
    """(parent, flip result) pairs along a walk and along the m+1 flips of
    the flip-cycle chain at each of its steps."""
    for ang, arc in random_walk(cfg, steps, seed):
        cur, x = ang, arc
        for _ in range(cfg.m + 1):
            nxt = cur.flip(x)
            yield cur, nxt
            cur, x = nxt, verify._new_arc(cur, nxt)


class TestFlipValidity:
    """A flip result is checked against its parent in O(r), and a cut
    view's disk takes its validity from the annulus.  Both must agree with
    what fresh objects work out in full."""

    @pytest.mark.parametrize("cfg", verify.DISK_MATRIX + ANNULUS_MATRIX, ids=repr)
    def test_carried_validity_matches_fresh_objects(self, cfg):
        for parent, out in flip_chains(cfg, 12, 6):
            for obj in (parent, out):
                fresh = type(obj)(obj.config, obj.arcs)
                assert obj.violations() == fresh.violations() == []
                for ref, view in getattr(obj, "_views", {}).items():
                    cut = annulus.BridgeCut(cfg, ref)
                    local = DiskAngulation(
                        cut.disk, [cut.to_disk(a) for a in obj.arcs if a != ref])
                    assert view.disk == local
                    assert view.disk.violations() == local.violations() == []

    @pytest.mark.parametrize("wrong", ["crossing", "duplicate"])
    def test_a_wrong_disk_twist_makes_the_flip_invalid(self, monkeypatch, wrong):
        ang = initial_fan(DiskConfig(2, 14))  # (1,4), (1,6), ..., (1,12)
        # (3,6) is an m-diagonal crossing (1,4); (1,4) is already there
        bad = Diagonal(3, 6) if wrong == "crossing" else Diagonal(1, 4)
        monkeypatch.setattr(DiskAngulation, "twist", lambda self, d: bad)
        flipped = ang.flip(Diagonal(1, 6))
        assert not flipped.is_valid()
        assert flipped.violations() == DiskAngulation(
            flipped.config, flipped.arcs).violations()

    @pytest.mark.parametrize("wrong", ["crossing", "short"])
    def test_a_wrong_disk_twist_makes_the_annulus_flip_invalid(self, monkeypatch, wrong):
        ang = initial_bridges(AnnulusConfig(2, 2, 2))
        x = ang.arcs[0]
        view = ang._held_view(x)
        others = [e for a, e in view.diagonal.items() if a != x]
        if wrong == "crossing":
            bad = next(d for d in view.cut.disk.all_diagonals()
                       if any(disk.crosses(d, e) for e in others))
        else:
            # a chord of the region around x that cuts off a triangle and
            # stands for a bridge: it crosses nothing and is an m-diagonal
            # of the annulus, but leaves cells that are not (m+2)-gons
            region = merged_region(view.disk, view.diagonal[x])
            bad = next(d for d in map(Diagonal, region, region[2:])
                       if isinstance(view.cut.from_disk(d), annulus.Bridge))
            assert not view.cut.disk.is_m_diagonal(bad)
        monkeypatch.setattr(DiskAngulation, "twist", lambda self, d: bad)
        flipped = ang.flip(x)
        assert not flipped.is_valid()
        assert not AnnulusAngulation(flipped.config, flipped.arcs).is_valid()


def counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


class TestAngulationInterface:
    """The disk and the annulus answer the same questions the same way."""

    @pytest.mark.parametrize("cfg", WALKED_DISKS + ANNULUS_MATRIX, ids=repr)
    def test_completions_method_is_the_module_function(self, cfg):
        module = disk if isinstance(cfg, DiskConfig) else annulus
        for ang, _ in random_walk(cfg, 12, 4):
            for x in ang.arcs:
                if ang.can_flip(x):
                    rest = [a for a in ang.arcs if a != x]
                    assert ang.completions(x) == module.completions(cfg, rest, x)

    def test_disk_can_flip_every_arc_and_no_foreign_one(self):
        ang = initial_fan(DiskConfig(2, 10))
        assert all(ang.can_flip(d) for d in ang.arcs)
        with pytest.raises(NotInAngulation):
            ang.can_flip(Diagonal(2, 5))
        with pytest.raises(NotInAngulation):
            ang.completions(Diagonal(2, 5))

    @pytest.mark.parametrize("cfg", [DiskConfig(2, 14), AnnulusConfig(2, 4, 3)], ids=repr)
    def test_flip_results_find_their_arcs_without_comparing_them(self, cfg, monkeypatch):
        # a flip result answers membership from its twist table or cut view,
        # not by comparing the arc with its arcs one by one: a scan makes
        # r(r-1)/2 comparisons for can_flip over all r arcs
        calls = {}
        for cls in (Diagonal, annulus.Bridge, annulus.OuterChord, annulus.InnerChord):
            monkeypatch.setattr(cls, "__eq__", counted(calls, "eq", cls.__eq__))
        for ang, _ in list(random_walk(cfg, 6, 3))[1:]:
            calls.clear()
            assert all(ang.can_flip(x) for x in ang.arcs)
            # a lookup compares at most on a hash collision (an outer and an
            # inner chord of equal start and span), and the annulus compares
            # its cut view's bridge with itself
            assert calls.get("eq", 0) <= len(ang.arcs)
            assert all(ang.can_flip(copy.copy(x)) for x in ang.arcs)
            x = ang.arcs[0]
            foreign = (annulus.Bridge(x.outer, x.inner, 99) if hasattr(x, "winding")
                       else Diagonal(x.a, 99))
            with pytest.raises(NotInAngulation):
                ang.can_flip(foreign)
            with pytest.raises(NotInAngulation):
                ang.twist(foreign)

    @pytest.mark.parametrize("cfg", [DiskConfig(2, 10), AnnulusConfig(1, 2, 1),
                                     AnnulusConfig(2, 2, 1)], ids=repr)
    def test_only_an_arc_is_in_an_angulation(self, cfg):
        # a list is unhashable, and a plain tuple equals the arc of its
        # numbers: both are refused before the angulation holds a twist
        # table or cut view and a flip result, and after
        ang = initial_fan(cfg) if isinstance(cfg, DiskConfig) else initial_bridges(cfg)
        x, *rest = ang.arcs
        strangers = [list(x), tuple(x), list(x)[-len(x._fields):]]

        def refuse_all():
            asks = (ang.can_flip, ang.twist, ang.flip,
                    lambda stranger: ang.quiver_of([stranger, *rest]))
            for stranger in strangers:
                for ask in asks:
                    with pytest.raises(NotInAngulation):
                        ask(stranger)

        assert not ang.__dict__.get("_views") and "_sides" not in ang.__dict__
        refuse_all()
        ang.flip(x)
        assert ang.__dict__.get("_views") or "_sides" in ang.__dict__
        refuse_all()
        if isinstance(cfg, AnnulusConfig):
            for stranger in strangers:
                with pytest.raises(NotInAngulation):
                    ang.faces(stranger)

    def test_disk_and_annulus_never_equal(self):
        empty_disk = DiskAngulation(DiskConfig(2, 4), [])
        empty_annulus = AnnulusAngulation(AnnulusConfig(2, 1, 1), [])
        assert empty_disk.arcs == empty_annulus.arcs
        assert empty_disk != empty_annulus and empty_annulus != empty_disk
        assert initial_fan(PENTAGON) != initial_bridges(AnnulusConfig(1, 1, 1))

    @pytest.mark.parametrize("ang", [initial_fan(PENTAGON),
                                     initial_bridges(AnnulusConfig(1, 1, 1))],
                             ids=["disk", "annulus"])
    def test_assignment_names_the_class(self, ang):
        name = type(ang).__name__
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            ang.arcs = ()
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            ang.extra = 1

    def test_flip_cycle_uses_the_module_completions(self, monkeypatch):
        # the unchecked function the public one calls after its input check
        calls = {}
        for cls in (DiskAngulation, AnnulusAngulation):
            monkeypatch.setattr(cls, "_completions", staticmethod(
                counted(calls, cls.__module__, cls._completions)))
        cases = list(random_walk(DiskConfig(2, 10), 6, 1))
        assert check_flip_cycle(cases).passed
        assert calls == {"angulator.disk": 6}
        calls.clear()
        cases = list(random_walk(AnnulusConfig(2, 2, 1), 5, 1))
        assert check_flip_cycle(cases).passed
        assert calls == {"angulator.annulus": 5, "angulator.disk": 5}

    @pytest.mark.parametrize("cfg", [DiskConfig(2, 10), AnnulusConfig(2, 2, 1)], ids=repr)
    def test_flip_cycle_compares_the_completions_with_the_flips(self, cfg, monkeypatch):
        # m + 1 completions that end with the removed arc, but not in the
        # order the flips put them in place, fail every completions case
        cls = DiskAngulation if isinstance(cfg, DiskConfig) else AnnulusAngulation
        raw = cls._completions

        def swapped(*args):
            out = raw(*args)
            return out[1:2] + out[:1] + out[2:]

        cases = list(random_walk(cfg, 6, 1))
        assert check_flip_cycle(cases).passed
        monkeypatch.setattr(cls, "_completions", staticmethod(swapped))
        report = check_flip_cycle(cases)
        assert report.cases == 2 * len(cases)
        assert [f.fingerprint for f in report.failures] == [
            f"{ang} completions at {arc}" for ang, arc in cases]

    @pytest.mark.parametrize("cfg", [DiskConfig(2, 10), AnnulusConfig(2, 2, 1),
                                     AnnulusConfig(1, 4, 3)], ids=repr)
    def test_public_completions_check_their_input_once(self, cfg, monkeypatch):
        # the annulus checks in annulus terms: no cut-disk crossing test
        module = disk if isinstance(cfg, DiskConfig) else annulus
        calls = {}
        monkeypatch.setattr(disk, "arc_set_problems",
                            counted(calls, "check", disk.arc_set_problems))
        monkeypatch.setattr(disk, "crosses", counted(calls, "disk", disk.crosses))
        for ang, arc in random_walk(cfg, 5, 1):
            want = ang.completions(arc)
            calls.clear()
            rest = [a for a in ang.arcs if a != arc]
            assert module.completions(cfg, rest, arc) == want
            assert calls == ({"check": 1, "disk": len(rest) * (len(rest) + 1) // 2}
                             if module is disk else {"check": 1})

    def test_completions_split_the_partial_set_afresh(self, monkeypatch):
        # and do not read the faces the angulation already holds
        calls = {}
        monkeypatch.setattr(disk, "split_regions",
                            counted(calls, "split", disk.split_regions))
        for cfg in (DiskConfig(2, 10), AnnulusConfig(2, 2, 1)):
            for ang, arc in random_walk(cfg, 5, 1):
                ang.faces()
                calls.clear()
                ang.completions(arc)
                assert calls == {"split": 1}


def refuse(*args, **kwargs):
    raise AssertionError("an oracle used the code it checks")


def reference_extensions(cfg, trials, seed):
    """The chosen arcs of every trial of ``check_annulus_maximal``, by the
    original extension loop: passes over the pool until one adds nothing,
    each candidate judged by a fresh split of the disk cut along the least
    chosen bridge."""

    def cells_ok(arcs):
        bridges = [a for a in arcs if isinstance(a, annulus.Bridge)]
        cut = annulus.BridgeCut(cfg, min(bridges))
        chords = [frozenset((d.a, d.b))
                  for d in (cut.to_disk(a) for a in arcs if a != cut.bridge)]
        cycle = list(range(1, cut.disk.sides + 1))
        return all((len(r) - 2) % cfg.m == 0 for r in split_regions(cycle, chords))

    window = cfg.p + cfg.q + 3
    rng = random.Random(seed)
    pool = []
    for o in range(1, cfg.outer_len + 1):
        for i in range(1, cfg.inner_len + 1):
            pool.extend(annulus.Bridge(o, i, w) for w in range(-window, window + 1))
    for boundary, kind in ((cfg.outer_len, annulus.OuterChord),
                           (cfg.inner_len, annulus.InnerChord)):
        for s in range(1, boundary + 1):
            for t in range(cfg.m + 1, boundary, cfg.m):
                pool.append(kind(s, t))
    pool = [a for a in pool if cfg.is_m_diagonal(a)]
    out = []
    for _ in range(trials):
        chosen = [annulus.Bridge(rng.randrange(1, cfg.outer_len + 1),
                                 rng.randrange(1, cfg.inner_len + 1),
                                 rng.randrange(-1, 2))]
        order = rng.sample(pool, len(pool))
        progress = True
        while progress:
            progress = False
            for a in order:
                if (
                    a not in chosen
                    and not any(annulus.crosses(cfg, a, b) for b in chosen)
                    and cells_ok(chosen + [a])
                ):
                    chosen.append(a)
                    progress = True
        out.append(set(chosen))
    return out


def checked_extensions(monkeypatch, cfg, trials, seed):
    """The report of ``check_annulus_maximal`` and the arc set of every
    angulation it built, one per trial."""
    built = []

    def record(config, arcs):
        built.append(set(arcs))
        return AnnulusAngulation(config, arcs)

    with monkeypatch.context() as patch:
        patch.setattr(annulus, "AnnulusAngulation", record)
        report = check_annulus_maximal(cfg, trials=trials, seed=seed)
    return report, built


class TestAnnulusMaximal:
    @pytest.mark.parametrize(
        "cfg",
        ANNULUS_MATRIX + [AnnulusConfig(3, 2, 2), AnnulusConfig(2, 5, 3),
                          AnnulusConfig(1, 5, 4)],
        ids=repr,
    )
    def test_chosen_sets_equal_the_reference(self, monkeypatch, cfg):
        for seed in range(4):
            report, built = checked_extensions(monkeypatch, cfg, 30, seed)
            assert report.passed and report.cases == 60
            assert built == reference_extensions(cfg, 30, seed)

    @pytest.mark.parametrize("cfg", [c for c in ANNULUS_MATRIX if c.m == 2],
                             ids=repr)
    def test_cell_rule_is_needed(self, monkeypatch, cfg):
        # the rule is the m-diagonal test of the cut disk; accepting every
        # compatible arc leaves maximal sets that are no (m+2)-angulation,
        # in every trial
        monkeypatch.setattr(DiskConfig, "is_m_diagonal", lambda self, d: True)
        report = check_annulus_maximal(cfg, trials=15, seed=5)
        assert report.cases == 30 and len(report.failures) == 30


class TestOracleIndependence:
    """Enumeration and maximal sets use neither flips nor the closed form;
    the flip graph does not use the enumeration."""

    def test_enumeration_and_maximal_sets(self, monkeypatch):
        monkeypatch.setattr(DiskAngulation, "flip", refuse)
        monkeypatch.setattr(DiskAngulation, "twist", refuse)
        monkeypatch.setattr(disk, "region_twist", refuse)
        monkeypatch.setattr(verify, "fuss_catalan", refuse)
        cfg = DiskConfig(2, 12)
        count, found = enumerate_angulations(cfg, collect=True)
        assert count == len(found) == enumerate_angulations(cfg)[0] == 273
        assert maximal_set_sizes(cfg) == {4: 273}

    def test_flip_graph(self, monkeypatch):
        monkeypatch.setattr(disk, "enumerate_angulations", refuse)
        monkeypatch.setattr(verify, "fuss_catalan", refuse)
        assert len(flip_graph(DiskConfig(2, 12)).nodes) == 273

    def test_annulus_maximal_sets(self, monkeypatch):
        # a candidate is judged by its image in one cut disk, not by face
        # splits, flips, completions or the closed form
        monkeypatch.setattr(faces, "split_regions", refuse)
        monkeypatch.setattr(disk, "split_regions", refuse)
        monkeypatch.setattr(AnnulusAngulation, "flip", refuse)
        monkeypatch.setattr(AnnulusAngulation, "faces", refuse)
        monkeypatch.setattr(annulus, "completions", refuse)
        monkeypatch.setattr(verify, "fuss_catalan", refuse)
        for cfg in (AnnulusConfig(2, 2, 2), AnnulusConfig(2, 4, 3)):
            report = check_annulus_maximal(cfg, trials=15, seed=5)
            assert report.passed and report.cases == 30

    def test_maximal_sets_fail_when_every_arc_crosses(self, monkeypatch):
        # the first bridge's crossing row is read through annulus.crosses:
        # it blocks every candidate, and each trial stops at one arc
        monkeypatch.setattr(annulus, "crosses", lambda cfg, x, y: True)
        report = check_annulus_maximal(AnnulusConfig(2, 4, 3), trials=15, seed=5)
        assert report.cases == 30 and len(report.failures) == 30
        assert report.failures[0].actual == "1"

    def test_maximal_sets_fail_when_no_arc_crosses(self, monkeypatch):
        # with annulus.crosses blind, the first bridge's row lets through
        # arcs that cross that bridge, which the cut along it cannot place;
        # a private copy of the bridge rule would keep them from the cut
        real_crosses, real_to_disk = annulus.crosses, annulus.BridgeCut.to_disk

        class CrossesTheCut(Exception):
            pass

        def to_disk(cut, arc):
            if real_crosses(cut.cfg, arc, cut.bridge):
                raise CrossesTheCut(arc)
            return real_to_disk(cut, arc)

        monkeypatch.setattr(annulus, "crosses", lambda cfg, x, y: False)
        monkeypatch.setattr(annulus.BridgeCut, "to_disk", to_disk)
        with pytest.raises(CrossesTheCut):
            check_annulus_maximal(AnnulusConfig(2, 4, 3), trials=15, seed=5)

    def test_counts_run_each_oracle_once(self, monkeypatch):
        calls = {}
        for name in ("enumerate_angulations", "flip_graph", "maximal_set_sizes"):
            monkeypatch.setattr(disk, name, counted(calls, name, getattr(disk, name)))
        monkeypatch.setattr(verify, "DISK_MATRIX", [DiskConfig(2, 10)])
        monkeypatch.setattr(verify, "ANNULUS_MATRIX", [])
        reports = run_suite("counts", steps=5)
        assert all(r.passed and r.cases for r in reports)
        assert calls == {"enumerate_angulations": 1, "flip_graph": 1,
                         "maximal_set_sizes": 1}

    def test_one_store_and_one_crossing_table_per_disk(self, monkeypatch):
        calls = {}
        monkeypatch.setattr(disk, "enumerate_angulations", counted(
            calls, "enumerate", disk.enumerate_angulations))
        monkeypatch.setattr(DiskConfig, "all_diagonals", counted(
            calls, "diagonals", DiskConfig.all_diagonals))
        # a fresh configuration, whose crossing table is not built yet;
        # compat enumerates it, and the count suites share that store
        cfg = DiskConfig(2, 10)
        assert fuss_catalan(cfg.m, cfg.rank + 1) <= verify.COMPAT_ENUM_CAP
        monkeypatch.setattr(verify, "DISK_MATRIX", [cfg])
        monkeypatch.setattr(verify, "ANNULUS_MATRIX", [])
        reports = run_suite("all", steps=5)
        assert all(r.passed and r.cases for r in reports)
        assert calls == {"enumerate": 1, "diagonals": 1}

    def test_all_equals_the_suites_run_apart(self, monkeypatch):
        # within one call the suites share stores and the objects in them;
        # the reports must still be those of separate calls
        disks = [DiskConfig(1, 6), DiskConfig(2, 10), DiskConfig(1, 9)]
        assert [fuss_catalan(c.m, c.rank + 1) <= verify.COMPAT_ENUM_CAP
                for c in disks] == [True, True, False]
        monkeypatch.setattr(verify, "DISK_MATRIX", disks)
        monkeypatch.setattr(verify, "ANNULUS_MATRIX",
                            [AnnulusConfig(1, 2, 1), AnnulusConfig(2, 2, 2)])

        def reports(suite):
            return [r.to_json_dict(include_elapsed=False)
                    for r in run_suite(suite, steps=20)]

        apart = reports("compat") + reports("counts") + reports("cut")
        assert reports("all") == apart and len(apart) == 5 * 3 + 3 * 3 + 2 + 5


class TestFailureRecords:
    """Failure messages are built lazily; they must read exactly as the
    eagerly built ones did."""

    def test_flip_mutation(self, monkeypatch):
        ang, arc = initial_fan(PENTAGON), Diagonal(1, 3)
        expected = ang.quiver_of()
        flipped = ang.flip(arc)
        actual = flipped.quiver_of([Diagonal(2, 4), Diagonal(1, 4)])
        monkeypatch.setattr(ColoredQuiver, "mutate", lambda self, k: self)
        report = check_flip_mutation([(ang, arc)])
        assert report.cases == 1
        assert [(f.fingerprint, f.expected, f.actual) for f in report.failures] == [
            (f"{ang} flip {arc}", repr(expected), repr(actual))
        ]

    def test_axioms(self, monkeypatch):
        ang, arc = initial_fan(PENTAGON), Diagonal(1, 4)
        q = ang.quiver_of()
        mutated = q.mutate(1)
        monkeypatch.setattr(ColoredQuiver, "mutate_procedural", lambda self, k: self)
        report = check_axioms([(ang, arc)])
        assert report.cases == 3
        assert [(f.fingerprint, f.expected, f.actual) for f in report.failures] == [
            (f"procedural {ang} @1", repr(mutated), repr(q))
        ]


class TestSuites:
    def test_flip_mutation_on_pentagon_enumeration(self):
        report = check_flip_mutation(all_disk_cases(PENTAGON))
        assert report.passed and report.cases == 10

    def test_flip_mutation_records_failures(self):
        # corrupt a case stream by pairing an angulation with a foreign arc
        ang = initial_fan(PENTAGON)
        with pytest.raises(ValueError):
            check_flip_mutation([(ang, Diagonal(2, 4))])

    def test_flip_cycle_and_axioms(self):
        cases = list(all_disk_cases(DiskConfig(2, 8)))
        assert check_flip_cycle(cases).passed
        assert check_axioms(cases).passed

    def test_annulus_cases(self):
        cases = list(random_walk(AnnulusConfig(2, 2, 2), 40, 1))
        assert check_flip_mutation(cases).passed
        assert check_flip_cycle(cases).passed
        assert check_axioms(cases).passed

    def test_counts_and_connectivity(self):
        oracles = DiskOracles(DiskConfig(2, 8))
        assert check_counts(oracles).passed
        assert check_connectivity(oracles).passed

    def test_gabriel(self):
        assert check_gabriel(DiskConfig(3, 11)).passed

    def test_cut_transport(self):
        cases = list(random_walk(DiskConfig(2, 10), 25, 2))
        assert check_cut_transport(DiskConfig(2, 10), cases).passed
        acfg = AnnulusConfig(2, 2, 2)
        assert check_cut_transport(acfg, list(random_walk(acfg, 25, 2))).passed

    def test_annulus_maximal(self):
        assert check_annulus_maximal(AnnulusConfig(2, 1, 1), trials=25, seed=0).passed
        assert check_annulus_maximal(AnnulusConfig(1, 2, 1), trials=25, seed=0).passed


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_small_cut_suite_all_pass(self):
        reports = run_suite("cut", seed=1, steps=5)
        assert reports and all(r.passed for r in reports)

    def test_deterministic_given_seed(self):
        a = [r.to_json_dict(include_elapsed=False) for r in run_suite("cut", seed=3, steps=4)]
        b = [r.to_json_dict(include_elapsed=False) for r in run_suite("cut", seed=3, steps=4)]
        assert a == b
