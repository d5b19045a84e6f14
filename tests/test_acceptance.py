"""Acceptance criteria, one test per criterion.

Every criterion is exact (zero tolerated failures); criteria 1 and 2 also
carry wall-clock budgets.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one pass/fail line per criterion.
"""

import time

import pytest

from angulator.annulus import AnnulusConfig
from angulator.disk import DiskConfig, enumerate_angulations, flip_graph, maximal_set_sizes
from angulator.verify import (
    DiskOracles,
    check_annulus_maximal,
    check_axioms,
    check_connectivity,
    check_cut_transport,
    check_flip_cycle,
    check_flip_mutation,
    check_gabriel,
    fuss_catalan,
    random_walk,
)
from regions import all_angulations

DISK_COUNTS = {
    (1, 5): 5,
    (1, 6): 14,
    (1, 7): 42,
    (2, 8): 12,
    (2, 10): 55,
    (3, 11): 22,
    (3, 14): 140,
}
DISK_CONFIGS = [DiskConfig(m, s) for (m, s) in DISK_COUNTS]
ANNULUS_CONFIGS = [
    AnnulusConfig(m, p, q)
    for m in (1, 2)
    for (p, q) in ((1, 1), (2, 1), (2, 2), (4, 3))
]
WALK_STEPS = 500
SEED = 20240811


def _report_line(name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {name}: {status} ({elapsed:.1f}s){detail}")


@pytest.fixture(scope="module")
def disk_cases():
    return {
        cfg: [(a, d) for a in all_angulations(cfg) for d in a.arcs]
        for cfg in DISK_CONFIGS
    }


@pytest.fixture(scope="module")
def annulus_cases():
    return {
        cfg: list(random_walk(cfg, WALK_STEPS, SEED)) for cfg in ANNULUS_CONFIGS
    }


def test_criterion_1_disk_counts():
    t0 = time.perf_counter()
    failures = []
    for (m, s), expected in DISK_COUNTS.items():
        cfg = DiskConfig(m, s)
        brute, _ = enumerate_angulations(cfg)
        closed = fuss_catalan(m, cfg.rank + 1)
        bfs = len(flip_graph(cfg).nodes)
        if not (brute == closed == bfs == expected):
            failures.append((m, s, brute, closed, bfs, expected))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60
    _report_line("1 (disk counts vs Fuss-Catalan and BFS)", ok, elapsed,
                 f" {len(DISK_COUNTS)} configs")
    assert not failures, failures
    assert elapsed < 60


def test_criterion_2_flip_mutation(disk_cases, annulus_cases):
    t0 = time.perf_counter()
    reports = []
    for cfg in DISK_CONFIGS:
        reports.append(check_flip_mutation(disk_cases[cfg]))
    for cfg in ANNULUS_CONFIGS:
        assert len(annulus_cases[cfg]) >= 500
        reports.append(check_flip_mutation(annulus_cases[cfg]))
    elapsed = time.perf_counter() - t0
    bad = [f for r in reports for f in r.failures]
    cases = sum(r.cases for r in reports)
    ok = not bad and elapsed < 120
    _report_line("2 (flip <-> mutation, bit-exact)", ok, elapsed,
                 f" {cases} cases")
    assert not bad, bad[:3]
    assert elapsed < 120


def test_criterion_3_complement_cycle(disk_cases, annulus_cases):
    t0 = time.perf_counter()
    reports = [check_flip_cycle(disk_cases[cfg]) for cfg in DISK_CONFIGS]
    reports += [check_flip_cycle(annulus_cases[cfg]) for cfg in ANNULUS_CONFIGS]
    elapsed = time.perf_counter() - t0
    bad = [f for r in reports for f in r.failures]
    _report_line("3 (m+1 completions and flip^(m+1) = id)", not bad, elapsed,
                 f" {sum(r.cases for r in reports)} checks")
    assert not bad, bad[:3]


def test_criterion_4_axioms_and_procedural(disk_cases, annulus_cases):
    t0 = time.perf_counter()
    reports = [check_axioms(disk_cases[cfg]) for cfg in DISK_CONFIGS]
    reports += [check_axioms(annulus_cases[cfg]) for cfg in ANNULUS_CONFIGS]
    elapsed = time.perf_counter() - t0
    bad = [f for r in reports for f in r.failures]
    _report_line("4 (quiver axioms, procedural agreement)", not bad, elapsed,
                 f" {sum(r.cases for r in reports)} checks")
    assert not bad, bad[:3]


def test_criterion_5_connectivity():
    t0 = time.perf_counter()
    reports = [check_connectivity(DiskOracles(cfg)) for cfg in DISK_CONFIGS]
    elapsed = time.perf_counter() - t0
    bad = [f for r in reports for f in r.failures]
    _report_line("5 (flip graphs connected)", not bad, elapsed)
    assert not bad, bad[:3]


def test_criterion_6_maximal_cardinality():
    t0 = time.perf_counter()
    failures = []
    for cfg in DISK_CONFIGS:
        sizes = maximal_set_sizes(cfg)
        if set(sizes) != {cfg.rank}:
            failures.append((cfg, sizes))
    reports = [
        check_annulus_maximal(cfg, trials=100, seed=SEED)
        for cfg in ANNULUS_CONFIGS
    ]
    elapsed = time.perf_counter() - t0
    bad = failures + [f for r in reports for f in r.failures]
    _report_line("6 (maximal sets have rank cardinality)", not bad, elapsed)
    assert not bad, bad[:3]


def test_criterion_7_cut_transport():
    t0 = time.perf_counter()
    reports = []
    for cfg in DISK_CONFIGS + ANNULUS_CONFIGS:
        pairs = list(random_walk(cfg, 200, SEED))
        assert len(pairs) >= 200
        reports.append(check_cut_transport(cfg, pairs))
    elapsed = time.perf_counter() - t0
    bad = [f for r in reports for f in r.failures]
    _report_line("7 (cut transport preserves crossings)", not bad, elapsed,
                 f" {sum(r.cases for r in reports)} checks")
    assert not bad, bad[:3]


def test_criterion_8_gabriel_linear_path():
    t0 = time.perf_counter()
    reports = [check_gabriel(cfg) for cfg in DISK_CONFIGS]
    elapsed = time.perf_counter() - t0
    bad = [f for r in reports for f in r.failures]
    _report_line("8 (gabriel of fan is a linear path)", not bad, elapsed)
    assert not bad, bad[:3]
