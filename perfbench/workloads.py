"""The three benchmark workloads: set-up, one timed pass, and checks.

Each workload drives the program's public API from outside.  ``setup``
imports the program afresh and builds the inputs from the seed;
``reload`` imports the program afresh for the next pass, so that nothing
the program cached in one pass serves the next; ``run`` makes one timed
pass over the workload's units; ``check`` decides whether that pass's
outputs are correct.  See README.md for why each exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

MODULES = ("quiver", "faces", "disk", "annulus", "verify", "cli")


class ProgramMissing(RuntimeError):
    """The checkout has no program sources to benchmark."""


def load_program(root: Path) -> SimpleNamespace:
    """Import the program's six modules from ``root/src``, discarding any
    earlier import so that every call pays the full import cost."""
    src = (root / "src").resolve()
    if not (src / "angulator" / "__init__.py").is_file():
        raise ProgramMissing(f"no angulator sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n.split(".")[0] == "angulator"]:
        del sys.modules[name]
    program = SimpleNamespace(
        **{m: importlib.import_module(f"angulator.{m}") for m in MODULES}
    )
    if not Path(program.cli.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"angulator imported from outside {src}")
    return program


@dataclass
class Iteration:
    """One pass over the workload's units: its wall time, each unit's time
    in seconds (in unit order), and what the checks need."""

    wall_s: float
    unit_s: list[float]
    outputs: object


@dataclass
class Verdict:
    attempted: int
    failed: int
    correct: bool
    info: dict = field(default_factory=dict)


# -- verify-walks and verify-counts -------------------------------------------

# A run needs 10 to 20 passes for each unit's fastest time to settle (see
# README.md), so a pass should take no more than 1 to 3 s.
# verify-walks: walks of 25 steps (the default is 500), and no compat run on
# the small disks, where compat checks every flip of every angulation
# rather than walking: those alone took half of a pass.
WALK_LENGTH = 25


def enumerated_compat(verify, suite, cfg):
    return (suite == "compat" and isinstance(cfg, verify.DiskConfig)
            and verify.fuss_catalan(cfg.m, cfg.rank + 1) <= verify.COMPAT_ENUM_CAP)


# verify-counts: the three largest disks, whose count suites take 7 s,
# 0.6 s and 1 s, are left out, and the annuli get 15 trials (steps // 5)
# instead of 100.
COUNTS_STEPS = 75
COUNTS_SKIP = ("DiskConfig(m=3, sides=20)", "DiskConfig(m=3, sides=17)",
               "DiskConfig(m=2, sides=14)")


def large_disk(verify, suite, cfg):
    return repr(cfg) in COUNTS_SKIP


class VerifyWorkload:
    """``verify.run_suite`` over the built-in matrix, one suite after the
    other.  A unit is one suite run on one configuration: ``run_suite``
    with the module's matrix narrowed to that configuration.  The units
    together give the reports of ``run_suite`` over the matrix less the
    skipped units, in the same order.  For pass and fail counts an
    operation is one verification case; for latency it is one unit."""

    def __init__(self, suites, steps, skip, tiny=False):
        self.suites = suites
        self.steps = steps
        self.skip = skip  # (verify module, suite, configuration) -> bool
        self.tiny = tiny

    def setup(self, root, seed):
        program = load_program(root)
        v = program.verify
        disks, annuli, steps = v.DISK_MATRIX, v.ANNULUS_MATRIX, self.steps
        if self.tiny:
            disks, annuli, steps = disks[:2], annuli[:1], 10
        units = [(suite, cfg) for suite in self.suites for cfg in disks + annuli
                 if not self.skip(v, suite, cfg)]
        return SimpleNamespace(program=program, root=root, seed=seed, steps=steps,
                               disks=disks, units=units)

    def reload(self, state):
        # the units hold configurations of the imported module: rebuild them
        return self.setup(state.root, state.seed)

    def run(self, state, mark=lambda request: None):
        verify = state.program.verify
        full = verify.DISK_MATRIX, verify.ANNULUS_MATRIX
        by_suite = {suite: [] for suite in self.suites}
        times = []
        clock = time.perf_counter
        t0 = clock()
        try:
            for i, (suite, cfg) in enumerate(state.units):
                mark(i)
                is_disk = cfg in state.disks
                verify.DISK_MATRIX = [cfg] if is_disk else []
                verify.ANNULUS_MATRIX = [] if is_disk else [cfg]
                s = clock()
                reports = verify.run_suite(suite, state.seed, steps=state.steps)
                times.append(clock() - s)
                by_suite[suite] += reports
        finally:
            verify.DISK_MATRIX, verify.ANNULUS_MATRIX = full
        wall = clock() - t0
        return Iteration(wall, times, list(by_suite.items()))

    @staticmethod
    def expected_reports(state, suite):
        per_unit = {"compat": (3, 3), "cut": (1, 1), "counts": (3, 1)}[suite]
        return sum(per_unit[cfg not in state.disks]
                   for s, cfg in state.units if s == suite)

    @staticmethod
    def known_vacuous(state, suite):
        """Reports the seed program already passes with zero cases: cutting
        a rank-1 polygon along its only diagonal leaves nothing to
        transport.  They are listed but do not make the run incorrect."""
        if suite != "cut":
            return set()
        return {f"cut-transport {cfg}" for s, cfg in state.units
                if s == "cut" and cfg in state.disks and cfg.rank == 1}

    def check(self, state, iteration):
        """Every report passes, none is vacuous, the matrix is complete.
        An operation is a case; a zero-case report attempted none and is
        listed in ``zero_case_reports``."""
        attempted = failed = 0
        problems, vacuous = [], []
        digests = {}
        cases = {}
        for suite, reports in iteration.outputs:
            want = self.expected_reports(state, suite)
            if len(reports) != want:
                problems.append(f"{suite}: {len(reports)} reports, expected {want}")
            vacuous_ok = self.known_vacuous(state, suite)
            for r in reports:
                attempted += r.cases
                failed += len(r.failures)
                if r.cases == 0:
                    vacuous.append(r.suite)
                    if r.suite not in vacuous_ok:
                        problems.append(f"{r.suite}: zero cases")
                if not r.passed:
                    problems.append(f"{r.suite}: {len(r.failures)} failures")
            # the bytes `angulator verify --suite <suite> --steps <steps>`
            # prints, when the workload skips no configuration
            text = json.dumps(
                {"suite": suite,
                 "reports": [r.to_json_dict(include_elapsed=False) for r in reports]},
                sort_keys=True, indent=2,
            )
            digests[suite] = hashlib.sha256((text + "\n").encode()).hexdigest()
            cases[suite] = sum(r.cases for r in reports)
        return Verdict(
            max(attempted, 1), failed, not problems and attempted > 0,
            {"cases": cases, "report_sha256": digests, "zero_case_reports": vacuous,
             "problems": problems[:10]},
        )


# -- cli-requests ---------------------------------------------------------------

RANKS = range(5, 16)
# Each of the 55 starts (model, m, rank) is walked for WALK_STEPS flips and
# makes requests at EMIT_STEPS of them: one of each valid kind and one
# malformed request per such step, the classes in turn.  A batch takes, for
# every start, PER_START requests of each valid kind, MALFORMED_QUOTA of
# each malformed class and REFUSED_QUOTA refused flips: 55 x 6 x 3 + 7 x 14
# + 6 = 1,094 requests, the same mix for every seed.
WALK_STEPS = 11
EMIT_STEPS = 3
PER_START = 3
MALFORMED_QUOTA = 14
REFUSED_QUOTA = 6
# malformed request classes and the exit codes the CLI documents for them
MALFORMED = {
    "bad-json": {2},
    "unknown-type": {2},
    "invalid-angulation": {3},
    "invalid-quiver": {3},
    "arc-out-of-range": {4},
    "k-out-of-range": {4},
    # a boundary vertex beyond the polygon: "invalid model" and "index
    # out of range" are both documented readings
    "vertex-out-of-range": {3, 4},
}
# The seed program answers vertex-out-of-range with an uncaught IndexError.
# It stays in the mix and counts as failed, but it is the known defect, so
# it alone does not make the run incorrect.
KNOWN_DEFECT = ("vertex-out-of-range", "IndexError")
VALID = ("flip", "quiver", "validate", "mutate", "mutate-procedural", "mutate-inverse")


@dataclass
class Request:
    kind: str
    argv: list
    codes: set
    # canonical JSON of the expected stdout object, "valid", or None
    expect: str | None = None


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _reindexed(quiver_cls, quiver, perm):
    """The same quiver with vertex i renamed perm[i]."""
    return quiver_cls(
        quiver.m, quiver.n,
        {(perm[i], perm[j], c): v for (i, j, c), v in quiver.arrows()},
    )


class CliWorkload:
    """A closed loop, one client: each request is an in-process
    ``cli.main(argv)`` call with inline JSON and captured output."""

    def __init__(self, tiny=False):
        self.tiny = tiny

    @staticmethod
    def _start(program, rng, model, m, rank):
        if model == "disk":
            return program.disk.initial_fan(
                program.disk.DiskConfig(m, (rank + 1) * m + 2))
        p = rng.randint(1, rank - 1)
        return program.annulus.initial_bridges(
            program.annulus.AnnulusConfig(m, p, rank - p))

    @staticmethod
    def _refuses(program, ang, arc):
        try:
            ang.flip(arc)
        except program.annulus.UnsupportedFlip:
            return True
        return False

    @staticmethod
    def _arcs(ang):
        return ang.diagonals if hasattr(ang, "diagonals") else ang.arcs

    def _malformed(self, rng, kind, ang, quiver):
        """One request of a malformed class, built from valid inputs."""
        adict = ang.to_json_dict()
        qjson = json.dumps(quiver.to_json_dict())
        n = quiver.n
        if kind == "bad-json":
            text = json.dumps(adict if rng.random() < 0.5 else quiver.to_json_dict())
            cmd = ["validate", text[: rng.randint(1, len(text) - 1)]]
        elif kind == "unknown-type":
            cmd = [rng.choice(("quiver", "validate")),
                   json.dumps(dict(adict, type="sphere"))]
        elif kind == "invalid-angulation":
            key = "diagonals" if adict["type"] == "disk" else "arcs"
            items = list(adict[key])
            items.pop(rng.randrange(len(items)))
            cmd = [rng.choice(("quiver", "validate")),
                   json.dumps(dict(adict, **{key: items}))]
        elif kind == "invalid-quiver":
            qd = quiver.to_json_dict()
            arrows = list(qd["arrows"])
            arrows.pop(rng.randrange(len(arrows)))
            cmd = ["validate", json.dumps(dict(qd, arrows=arrows))]
            if rng.random() < 0.5:
                cmd = ["mutate", cmd[1], "-k", str(rng.randrange(n))]
        elif kind == "arc-out-of-range":
            cmd = ["flip", json.dumps(adict), "--arc", str(n + rng.randint(0, 5))]
        elif kind == "k-out-of-range":
            cmd = ["mutate", qjson, "-k", str(n + rng.randint(0, 3))]
            cmd += rng.choice(([], ["--procedural"], ["--inverse"]))
        else:  # vertex-out-of-range
            if adict["type"] == "disk":
                diags = [list(d) for d in adict["diagonals"]]
                i = rng.randrange(len(diags))
                diags[i][1] = adict["sides"] + rng.randint(1, 4)
                bad = dict(adict, diagonals=diags)
            else:
                arcs = [dict(a) for a in adict["arcs"]]
                i = next(j for j, a in enumerate(arcs) if a["kind"] == "bridge")
                arcs[i]["outer"] = adict["m"] * adict["p"] + rng.randint(1, 4)
                bad = dict(adict, arcs=arcs)
            cmd = [rng.choice(("flip", "quiver", "validate")), json.dumps(bad)]
            if cmd[0] == "flip":
                cmd += ["--arc", "0"]
        return Request(kind, cmd, MALFORMED[kind])

    def _walk(self, program, rng, pools, start, classes):
        """Requests along one seeded random flip walk, from EMIT_STEPS of
        its steps, into ``pools`` by (start, kind): valid ones, one
        malformed request per such step of the next of ``classes``, and
        refused flips.

        Expected answers are derived without the code path under test:
        the flip answer is the walk's next angulation; the quiver answer
        is carried along the walk by mutation (flips commute with
        mutation), not read from faces; a formula mutation is checked
        against the procedural one and the other way round; an inverse
        mutation must give back the quiver that was mutated.
        """
        quiver_cls = program.quiver.ColoredQuiver
        ang = self._start(program, rng, *start)
        quiver = ang.quiver_of()
        emitting = set(rng.sample(range(WALK_STEPS), EMIT_STEPS))
        for t in range(WALK_STEPS):
            emit = t in emitting
            step = []
            arcs = self._arcs(ang)
            adict = ang.to_json_dict()
            ajson = json.dumps(adict)
            qjson = json.dumps(quiver.to_json_dict())
            order = rng.sample(range(len(arcs)), len(arcs))
            for k in order:
                try:
                    nxt = ang.flip(arcs[k])
                    break
                except program.annulus.UnsupportedFlip:
                    pass
            if emit and start[:2] == ("annulus", 1):
                # m = 1 annuli: the CLI refuses an unsupported position as invalid
                refused = [j for j, arc in enumerate(arcs)
                           if j != k and self._refuses(program, ang, arc)]
                if refused:
                    step.append(Request("refused-flip", ["flip", ajson, "--arc",
                                                         str(rng.choice(refused))], {3}))
            new_arcs = self._arcs(nxt)
            (new_arc,) = set(new_arcs) - set(arcs)
            perm = [new_arcs.index(new_arc if i == k else a) for i, a in enumerate(arcs)]
            mutated = quiver.mutate(k)
            if emit:
                j = rng.randrange(quiver.n)
                step += [
                    Request("flip", ["flip", ajson, "--arc", str(k)], {0},
                            _canon(nxt.to_json_dict())),
                    Request("quiver", ["quiver", ajson], {0},
                            _canon(quiver.to_json_dict())),
                    Request("validate", ["validate", rng.choice((ajson, qjson))],
                            {0}, "valid"),
                    Request("mutate", ["mutate", qjson, "-k", str(j)], {0},
                            _canon(quiver.mutate_procedural(j).to_json_dict())),
                    Request("mutate-procedural",
                            ["mutate", qjson, "-k", str(k), "--procedural"], {0},
                            _canon(mutated.to_json_dict())),
                    Request("mutate-inverse",
                            ["mutate", json.dumps(mutated.to_json_dict()), "-k",
                             str(k), "--inverse"], {0}, _canon(quiver.to_json_dict())),
                ]
                kind = next(classes)
                pools[kind].append(self._malformed(rng, kind, ang, quiver))
                for req in step:
                    key = req.kind if req.kind == "refused-flip" else (start, req.kind)
                    pools[key].append(req)
            ang, quiver = nxt, _reindexed(quiver_cls, mutated, perm)

    def setup(self, root, seed):
        program = load_program(root)
        rng = random.Random(seed)
        starts = [(model, m, rank)
                  for model, ms in (("disk", (1, 2, 3)), ("annulus", (1, 2)))
                  for m in ms for rank in RANKS]
        per_start, malformed, refused = PER_START, MALFORMED_QUOTA, REFUSED_QUOTA
        if self.tiny:
            starts, per_start, malformed, refused = starts[::6], 1, 2, 1
        # the same number of requests of each start and kind in every batch,
        # so that the work and the failure share depend little on the seed
        quotas = {(start, kind): per_start for start in starts for kind in VALID}
        quotas.update({kind: malformed for kind in MALFORMED})
        quotas["refused-flip"] = refused
        pools: dict = {key: [] for key in quotas}
        rng.shuffle(starts)
        classes = itertools.cycle(sorted(MALFORMED))
        for start in itertools.cycle(starts):
            if all(len(pools[key]) >= n for key, n in quotas.items()):
                break
            self._walk(program, rng, pools, start, classes)
        requests = [req for key, n in quotas.items() for req in rng.sample(pools[key], n)]
        rng.shuffle(requests)
        return SimpleNamespace(program=program, root=root, requests=requests)

    @staticmethod
    def reload(state):
        state.program = load_program(state.root)
        return state

    def run(self, state, mark=lambda request: None):
        cli = state.program.cli
        outputs, times = [], []
        clock = time.perf_counter
        t0 = clock()
        for i, req in enumerate(state.requests):
            mark(i)
            out, err = io.StringIO(), io.StringIO()
            raised = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                s = clock()
                try:
                    code = cli.main(req.argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
                except Exception as exc:
                    code, raised = None, type(exc).__name__
                e = clock()
            times.append(e - s)
            outputs.append((code, raised, out.getvalue(), err.getvalue()))
        return Iteration(clock() - t0, times, outputs)

    def check(self, state, iteration):
        """A request fails when its exit code is not the expected one, it
        exits 1, it raises, or its output differs from the answer computed
        at set-up."""
        failed = 0
        problems = []
        by_kind: dict = {}
        for req, (code, raised, out, err) in zip(state.requests, iteration.outputs):
            ok = raised is None and code in req.codes and code != 1
            if ok and req.expect == "valid":
                ok = out == "valid\n"
            elif ok and req.expect is not None:
                try:
                    ok = _canon(json.loads(out)) == req.expect
                except json.JSONDecodeError:
                    ok = False
            elif ok and code != 0:
                ok = out == "" and err.startswith("error:")
            tally = by_kind.setdefault(req.kind, [0, 0])
            tally[0] += 1
            if not ok:
                failed += 1
                tally[1] += 1
                if (req.kind, raised) != KNOWN_DEFECT:
                    problems.append(
                        f"{req.kind} {req.argv[0]}: exit {code}, raised {raised}, "
                        f"expected {sorted(req.codes)}"
                    )
        sent = json.dumps([req.argv for req in state.requests]).encode()
        return Verdict(
            len(state.requests), failed, not problems,
            {"requests_by_kind": {k: {"sent": v[0], "failed": v[1]}
                                  for k, v in sorted(by_kind.items())},
             "requests_sha256": hashlib.sha256(sent).hexdigest(),
             "problems": problems[:10]},
        )


def make(name, tiny=False):
    return {
        "verify-walks": lambda: VerifyWorkload(("compat", "cut"), WALK_LENGTH,
                                               enumerated_compat, tiny),
        "verify-counts": lambda: VerifyWorkload(("counts",), COUNTS_STEPS,
                                                large_disk, tiny),
        "cli-requests": lambda: CliWorkload(tiny),
    }[name]()


WORKLOADS = ("verify-walks", "verify-counts", "cli-requests")
