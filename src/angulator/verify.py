"""Theorem-checking harness with independent oracles.

Each suite runs a batch of cases and returns a VerificationReport; a case
failure records an input fingerprint together with the expected and actual
values.  All suites are deterministic given a configuration and a seed.

The flip/mutation suite is the arbiter for the global orientation
conventions: it asserts quiver_of(flip(D, x)) == mutate(quiver_of(D), k)
bit-exactly, with the flipped arc keeping its vertex index.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from functools import cached_property

from . import annulus as ann
from . import disk
from .disk import DEFAULT_GUARD, DiskConfig
from .quiver import PlainQuiver

# disk compat suites enumerate exhaustively below this many angulations
# and fall back to a random walk above it
COMPAT_ENUM_CAP = 300

DISK_MATRIX = [
    DiskConfig(m, (r + 1) * m + 2) for m in (1, 2, 3) for r in range(1, 6)
]
ANNULUS_MATRIX = [
    ann.AnnulusConfig(m, p, q)
    for m in (1, 2)
    for (p, q) in ((1, 1), (2, 1), (2, 2), (4, 3))
]


@dataclass
class CaseFailure:
    fingerprint: str
    expected: str
    actual: str


@dataclass
class VerificationReport:
    suite: str
    cases: int = 0
    failures: list[CaseFailure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, fingerprint, expected, actual):
        self.failures.append(CaseFailure(str(fingerprint), str(expected), str(actual)))

    def passes(self, ok) -> bool:
        """Count one case and return ``ok``.  The caller records a failure
        itself, so that its message is only built when a case fails."""
        self.cases += 1
        return ok

    def check(self, ok, fingerprint, expected="pass", actual="fail"):
        if not self.passes(ok):
            self.record(fingerprint, expected, actual)

    def to_json_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "cases": self.cases,
            "passed": self.passed,
            "failures": [
                {"input": f.fingerprint, "expected": f.expected, "actual": f.actual}
                for f in self.failures
            ],
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out


class _Timer:
    def __init__(self, report):
        self.report = report

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self.report

    def __exit__(self, *exc):
        self.report.elapsed = time.perf_counter() - self.t0


def _new_arc(before, after):
    (arc,) = set(after.arcs) - set(before.arcs)
    return arc


def fuss_catalan(m: int, k: int) -> int:
    """Number of dissections of a (km+2)-gon into (m+2)-gons."""
    return math.comb((m + 1) * k, k) // (k * m + 1)


def is_linear_path(pq: PlainQuiver) -> bool:
    """True iff the arrows form one directed path visiting every vertex."""
    if pq.n <= 1:
        return not pq.arrows
    if len(pq.arrows) != pq.n - 1 or any(v != 1 for _, v in pq.arrows):
        return False
    succ = dict(e for e, _ in pq.arrows)
    starts = set(range(pq.n)) - set(succ.values())
    if len(succ) != pq.n - 1 or len(starts) != 1:
        return False
    node, seen = starts.pop(), 1
    while node in succ:
        node = succ[node]
        seen += 1
    return seen == pq.n


# -- case sources ----------------------------------------------------------


def random_walk(cfg, steps: int, seed: int):
    """Deterministic random flip walk; yields (angulation, arc-to-flip).

    The arc is drawn among the positions that ``can_flip`` admits: every
    arc, except on annuli with m = 1, where a flip can leave the three-kind
    arc model.  Each angulation is the flip result itself, so annulus
    windings drift; arc order, flips and crossings do not depend on a
    common winding shift, so the walk draws as it would in normal form.
    """
    rng = random.Random(seed)
    start = disk.initial_fan if isinstance(cfg, DiskConfig) else ann.initial_bridges
    angulation = start(cfg)
    for _ in range(steps):
        flippable = [a for a in angulation.arcs if angulation.can_flip(a)]
        arc = flippable[rng.randrange(len(flippable))]
        yield angulation, arc
        angulation = angulation.flip(arc)


def all_disk_cases(cfg: DiskConfig, guard: int = DEFAULT_GUARD):
    """Every (angulation, diagonal) pair of a configuration."""
    _, angulations = disk.enumerate_angulations(cfg, guard=guard, collect=True)
    for angulation in angulations:
        for d in angulation.arcs:
            yield angulation, d


# -- suites ----------------------------------------------------------------


def check_flip_mutation(cases, suite="flip-mutation") -> VerificationReport:
    """quiver_of(flip(D, x)) == mutate(quiver_of(D), index(x)) bit-exactly."""
    report = VerificationReport(suite)
    with _Timer(report):
        for angulation, arc in cases:
            arcs = angulation.arcs
            k = arcs.index(arc)
            expected = angulation.quiver_of().mutate(k)
            flipped = angulation.flip(arc)
            order = [a if a != arc else _new_arc(angulation, flipped) for a in arcs]
            actual = flipped.quiver_of(order)
            if not report.passes(actual == expected):
                report.record(f"{angulation} flip {arc}", repr(expected), repr(actual))
    return report


def check_flip_cycle(cases, suite="flip-cycle") -> VerificationReport:
    """Flipping m+1 times at one position is the identity, and its m+1
    completions, found afresh, are the arcs the flips put there, in order."""
    report = VerificationReport(suite)
    with _Timer(report):
        for angulation, arc in cases:
            m = angulation.config.m
            cur, cur_arc, chain = angulation, arc, []
            for _ in range(m + 1):
                nxt = cur.flip(cur_arc)
                cur_arc = _new_arc(cur, nxt)
                chain.append(cur_arc)
                cur = nxt
            comps = angulation.completions(arc)
            if not report.passes(comps == chain):
                report.record(f"{angulation} completions at {arc}",
                              repr(chain), repr(comps))
            if not report.passes(cur == angulation):
                report.record(f"{angulation} flip^{m + 1} at {arc}",
                              repr(angulation), repr(cur))
    return report


def check_axioms(cases, suite="axioms") -> VerificationReport:
    """Angulation quivers and their mutations pass the three axioms, and
    the procedural mutation agrees with the closed formula."""
    report = VerificationReport(suite)
    with _Timer(report):
        for angulation, arc in cases:
            q = angulation.quiver_of()
            k = angulation.arcs.index(arc)
            problems = q.validate()
            if not report.passes(not problems):
                report.record(f"validate quiver_of {angulation}", "[]", repr(problems))
            mutated = q.mutate(k)
            problems = mutated.validate()
            if not report.passes(not problems):
                report.record(f"validate mutate {angulation} @{k}", "[]",
                              repr(problems))
            procedural = q.mutate_procedural(k)
            if not report.passes(procedural == mutated):
                report.record(f"procedural {angulation} @{k}", repr(mutated),
                              repr(procedural))
    return report


class DiskOracles:
    """The count oracles of one disk configuration, each run at most once
    and shared by check_counts and check_connectivity."""

    def __init__(self, cfg: DiskConfig, guard: int = DEFAULT_GUARD):
        self.cfg = cfg
        self.guard = guard

    @cached_property
    def enumerated(self):
        return disk.enumerate_angulations(self.cfg, guard=self.guard, collect=True)

    @cached_property
    def graph(self):
        return disk.flip_graph(self.cfg, guard=self.guard)

    @cached_property
    def sizes(self):
        return disk.maximal_set_sizes(self.cfg, guard=self.guard)


def check_counts(
    cfg: DiskConfig, guard: int = DEFAULT_GUARD, oracles: DiskOracles | None = None
) -> VerificationReport:
    """Backtracking count == Fuss-Catalan closed form == flip-graph BFS;
    every maximal noncrossing set has exactly rank elements."""
    report = VerificationReport(f"counts m={cfg.m} S={cfg.sides}")
    oracles = oracles or DiskOracles(cfg, guard)
    with _Timer(report):
        count, _ = oracles.enumerated
        closed = fuss_catalan(cfg.m, cfg.rank + 1)
        report.check(count == closed, "backtracking vs closed form", closed, count)
        graph = oracles.graph
        report.check(len(graph.nodes) == count, "BFS vs backtracking",
                     count, len(graph.nodes))
        sizes = oracles.sizes
        report.check(set(sizes) == {cfg.rank}, "maximal set sizes",
                     {cfg.rank}, set(sizes))
        report.check(sum(sizes.values()) == count, "maximal set count",
                     count, sum(sizes.values()))
    return report


def check_connectivity(
    cfg: DiskConfig, guard: int = DEFAULT_GUARD, oracles: DiskOracles | None = None
) -> VerificationReport:
    """The flip graph is connected and reaches every enumerated angulation.

    The "connected" case holds by construction: ``flip_graph`` builds the
    graph by a BFS from the initial fan.  The connectivity evidence is the
    other case, that every enumerated angulation is among the nodes,
    together with the equal counts that ``check_counts`` asserts.
    """
    report = VerificationReport(f"connectivity m={cfg.m} S={cfg.sides}")
    oracles = oracles or DiskOracles(cfg, guard)
    with _Timer(report):
        graph = oracles.graph
        report.check(graph.is_connected(), "connected", True, False)
        _, angulations = oracles.enumerated
        reached = set(graph.nodes)
        missing = [a for a in angulations if a not in reached]
        report.check(not missing, "all angulations reached from the fan",
                     0, len(missing))
    return report


def check_gabriel(cfg: DiskConfig) -> VerificationReport:
    """The color-0 quiver of the initial fan is a linear path."""
    report = VerificationReport(f"gabriel m={cfg.m} S={cfg.sides}")
    with _Timer(report):
        pq = disk.initial_fan(cfg).quiver_of().gabriel()
        if not report.passes(is_linear_path(pq)):
            report.record("gabriel(fan) linear path", "path", repr(pq))
    return report


def _check_cut(report, angulation, arc, transport, pieces, pull_back=None):
    """The cases of cutting ``angulation`` along its arc ``arc``.

    ``transport`` sends every other arc to (piece, its arc there), and
    ``pieces`` maps a piece to its configuration: transport keeps the
    crossing relation and validity.  Given ``pull_back(piece, local arc)``,
    transport is also undone by it and commutes with flips of the arcs
    that stay.  Returns {arc: (piece, piece configuration, local arc)}.
    """
    cfg = angulation.config
    placed = {}
    for a in angulation.arcs:
        if a != arc:
            piece, local = transport(a)
            placed[a] = piece, pieces[piece], local
    for a, b in itertools.combinations(placed, 2):
        (pa, piece_cfg, la), (pb, _, lb) = placed[a], placed[b]
        got = pa == pb and piece_cfg.crosses(la, lb)
        want = cfg.crosses(a, b)
        if not report.passes(got == want):
            report.record(f"crossing {a},{b} under cut {arc}", want, got)
    for a, (piece, piece_cfg, local) in placed.items():
        if not report.passes(piece_cfg.is_m_diagonal(local)):
            report.record(f"validity of {a} under cut {arc}", True, False)
        if pull_back:
            back = pull_back(piece, local)
            if not report.passes(back == a):
                report.record(f"round trip of {a} under cut {arc}", a, back)
    if not pull_back:
        return placed
    # the pieces are disks: the twist of an arc that stays, read in its
    # piece, pulls back to its twist (on an annulus this also exercises the
    # independence of the twist from the bridge chosen internally)
    cut_up = {
        piece: disk.DiskAngulation(piece_cfg, [v for p, _, v in placed.values() if p == piece])
        for piece, piece_cfg in pieces.items()
    }
    for a, (piece, _, local) in placed.items():
        if not angulation.can_flip(a):
            continue
        new_arc = angulation.twist(a)
        flipped_back = pull_back(piece, cut_up[piece].twist(local))
        if not report.passes(flipped_back == new_arc):
            report.record(f"flip of {a} commutes with cut {arc}", new_arc, flipped_back)
    return placed


def check_cut_transport(cfg, cases, suite=None) -> VerificationReport:
    """Transport along cuts preserves validity and the crossing relation
    and commutes with flips of arcs disjoint from the cut arc."""
    report = VerificationReport(suite or f"cut-transport {cfg}")
    with _Timer(report):
        for angulation, _ in cases:
            ears = [a for a in angulation.arcs if cfg.is_m_ear(a)]
            if isinstance(cfg, DiskConfig):
                cut = disk.cut_along(cfg, ears[0])
                _check_cut(report, angulation, cut.chord, cut.transport,
                           {1: cut.piece1, 2: cut.piece2}, cut.pull_back)
                continue
            cut = ann.cut_along(cfg, angulation.bridges()[0])
            _check_cut(report, angulation, cut.bridge, lambda a: (0, cut.to_disk(a)),
                       {0: cut.disk}, lambda _, d: cut.from_disk(d))
            if not ears:
                continue
            res = ann.cut_along(cfg, ears[0])
            placed = _check_cut(report, angulation, res.chord, res.transport,
                                {"annulus": res.annulus, "disk": res.disk})
            # the reduced arcs form an angulation of the smaller annulus
            reduced = ann.AnnulusAngulation(
                res.annulus, [v for piece, _, v in placed.values() if piece == "annulus"])
            if not report.passes(reduced.is_valid()):
                report.record(f"reduced angulation under cut {res.chord}", "[]",
                              repr(reduced.violations()))
    return report


def check_annulus_maximal(
    cfg: ann.AnnulusConfig, trials: int, seed: int
) -> VerificationReport:
    """Random maximal angulation-compatible extensions have exactly p+q arcs.

    For m >= 2 plain noncrossing maximality is too weak on the annulus
    (parallel bridges can dissect into cells smaller than (m+2)-gons), so
    extension steps must keep every cell size 2 (mod m); the maximal sets
    reached this way are exactly the (m+2)-angulations.
    """
    report = VerificationReport(f"maximal-sets {cfg}")
    window = cfg.p + cfg.q + 3
    with _Timer(report):
        rng = random.Random(seed)
        pool = []
        for o in range(1, cfg.outer_len + 1):
            for i in range(1, cfg.inner_len + 1):
                pool.extend(ann.Bridge(o, i, w) for w in range(-window, window + 1))
        for boundary, kind in ((cfg.outer_len, ann.OuterChord),
                               (cfg.inner_len, ann.InnerChord)):
            for s in range(1, boundary + 1):
                for t in range(cfg.m + 1, boundary, cfg.m):
                    pool.append(kind(s, t))
        pool = [a for a in pool if cfg.is_m_diagonal(a)]
        ids = {a: i for i, a in enumerate(pool)}
        crosses = ann.crosses
        for _ in range(trials):
            first = ids[ann.Bridge(rng.randrange(1, cfg.outer_len + 1),
                                   rng.randrange(1, cfg.inner_len + 1),
                                   rng.randrange(-1, 2))]
            bridge = pool[first]
            order = rng.sample(range(len(pool)), len(pool))
            # every candidate meets the first bridge: its whole crossing
            # row in one pass, then the arcs chosen later one by one
            blocked = [crosses(cfg, a, bridge) for a in pool]
            blocked[first] = True
            later = []
            # The first arc is a bridge and stays chosen: cut along it.
            # The cells of the chosen set all have size 2 (mod m) iff every
            # chosen arc is an m-diagonal of the cut disk (the argument is
            # in ``AnnulusAngulation._cell_problems``), so the rule reads
            # the candidate alone.  As an arc crossing a chosen arc still
            # crosses it later, every rejection is final: one pass over
            # ``order`` adds all that passes repeated until none adds an
            # arc would.
            cut = ann.BridgeCut(cfg, bridge)
            for idx in order:
                if blocked[idx]:
                    continue
                arc = pool[idx]
                for other in later:
                    if crosses(cfg, arc, other):
                        break
                else:
                    if cut.disk.is_m_diagonal(cut.to_disk(arc)):
                        later.append(arc)
            result = ann.AnnulusAngulation(cfg, [bridge, *later])
            chosen = list(result.arcs)
            if not report.passes(len(chosen) == cfg.rank):
                report.record(f"maximal extension {chosen}", cfg.rank, len(chosen))
            if not report.passes(result.is_valid()):
                report.record(f"maximal extension {chosen}", "[]",
                              repr(result.violations()))
    return report


# -- the built-in configuration matrix --------------------------------------


def _compat_cases(cfg, steps, seed, guard):
    if isinstance(cfg, DiskConfig) and (
        fuss_catalan(cfg.m, cfg.rank + 1) <= COMPAT_ENUM_CAP
    ):
        return list(all_disk_cases(cfg, guard))
    return list(random_walk(cfg, steps, seed))


def run_suite(
    suite: str,
    seed: int = 0,
    steps: int = 500,
    guard: int = DEFAULT_GUARD,
) -> list[VerificationReport]:
    """Run one named suite (or all) over the built-in matrix."""
    if suite not in ("all", "compat", "counts", "cut"):
        raise ValueError(f"unknown suite {suite!r}")
    reports = []
    configs = DISK_MATRIX + ANNULUS_MATRIX
    if suite in ("compat", "all"):
        for cfg in configs:
            cases = _compat_cases(cfg, steps, seed, guard)
            label = f"m={cfg.m} " + (
                f"S={cfg.sides}" if isinstance(cfg, DiskConfig)
                else f"(p,q)=({cfg.p},{cfg.q})"
            )
            reports.append(check_flip_mutation(cases, f"flip-mutation {label}"))
            reports.append(check_flip_cycle(cases, f"flip-cycle {label}"))
            reports.append(check_axioms(cases, f"axioms {label}"))
    if suite in ("counts", "all"):
        for cfg in DISK_MATRIX:
            oracles = DiskOracles(cfg, guard)
            reports.append(check_counts(cfg, guard, oracles))
            reports.append(check_connectivity(cfg, guard, oracles))
            reports.append(check_gabriel(cfg))
        for cfg in ANNULUS_MATRIX:
            reports.append(
                check_annulus_maximal(cfg, trials=max(1, steps // 5), seed=seed)
            )
    if suite in ("cut", "all"):
        for cfg in configs:
            cases = list(random_walk(cfg, min(steps, 200), seed))
            reports.append(
                check_cut_transport(cfg, cases, f"cut-transport {cfg}")
            )
    return reports
