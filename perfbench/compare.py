"""Paired parent/change comparison of the end-to-end metrics.

    python3 perfbench/compare.py --parent ../parent-checkout --change . \
        [--seed 100]

Both checkouts are measured with this file's benchmark code and
BENCHMARK.json settings: every workload, ten pairs, ``run_seconds`` per
run.  Pair i uses seed ``--seed + i`` on both sides and alternates which
side runs first.  The two runs of a pair must have done the same work: the
same verification case totals and report digests, or the same requests.
If they differ the comparison stops.  Per workload and metric it reports
each side's median and quartiles and two verdicts:

- ``gain``: "gain" only when the change wins at least nine tenths of the
  pairs (ties count for neither), the medians differ, in the change's
  favour, by more than the parent's interquartile range, and the change
  failed no larger share of its operations than the parent; otherwise
  "unresolved".
- ``bound``: "ok" when the change's median is no worse than the parent's by
  more than the metric's bound, "regression" when it is; "unresolved" when
  the parent's own spread exceeds the bound, unless every change run beats
  every parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900
PAIRS = 10


def run_once(root, workload, seed):
    """The info record and the result of one untraced run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", "0", "--root", str(root)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info)["info"], json.loads(result)


def work_done(info):
    """What a run computed, as far as the outputs show it: case totals and
    report digests (verify), or the digest and mix of the requests (cli).
    Pass and fail counts are left out; they are compared on their own."""
    work = []
    for check in info["checks"]:
        done = {k: check[k] for k in ("cases", "report_sha256", "requests_sha256")
                if k in check}
        if "requests_by_kind" in check:
            done["sent"] = {kind: v["sent"]
                            for kind, v in check["requests_by_kind"].items()}
        work.append(json.dumps(done, sort_keys=True))
    return sorted(work)


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(metric, parent, change, more_failures=False):
    """Verdicts for one metric from paired parent/change values.
    ``more_failures``: the change failed a larger share of its operations
    than the parent, which rules out a gain."""
    sign = 1 if metric["better"] == "lower" else -1  # sign * (a - b) > 0: b better
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p1, pm, p3 = spread(parent)
    c1, cm, c3 = spread(change)
    gain = (len(parent) >= PAIRS and wins >= 0.9 * len(parent)
            and sign * (pm - cm) > p3 - p1 and not more_failures)
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    if (p3 - p1) / abs(pm if pm else 1) > metric["bound"]:
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        bound = "ok" if all_better else "unresolved"
    else:
        bound = "regression" if worse > metric["bound"] else "ok"
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "wins": f"{wins}/{len(parent)}",
        "gain": "gain" if gain else "unresolved",
        "bound": bound,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args(argv)

    rows = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        values = {"parent": [], "change": []}
        failures = {"parent": [0, 0], "change": [0, 0]}
        for i in range(PAIRS):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            work = {}
            for side in order:
                info, result = run_once(getattr(args, side), workload, seed)
                if not result["correct"]:
                    raise SystemExit(f"{side} run of {workload} seed {seed} "
                                     f"failed its correctness check")
                work[side] = work_done(info)
                values[side].append(result["metrics"])
                failures[side][0] += result["failed"]
                failures[side][1] += result["attempted"]
            if work["parent"] != work["change"]:
                raise SystemExit(f"{workload} seed {seed}: the change did other "
                                 f"work than the parent:\n  parent {work['parent']}"
                                 f"\n  change {work['change']}")
            print(f"{workload}: pair {i + 1}/{PAIRS} done", file=sys.stderr)
        (pf, pa), (cf, ca) = failures["parent"], failures["change"]
        more_failures = cf * pa > pf * ca
        rows[workload] = {
            "failed/attempted": {side: f"{f}/{a}" for side, (f, a) in failures.items()},
            "more_failures": more_failures,
            "metrics": {
                m["name"]: judge(
                    m,
                    [r[m["name"]]["value"] for r in values["parent"]],
                    [r[m["name"]]["value"] for r in values["change"]],
                    more_failures,
                )
                for m in SPEC["end_to_end"]
            },
        }
        print(f"{workload:14} failed/attempted parent {pf}/{pa} change {cf}/{ca}"
              + ("  (change fails more: no gain)" if more_failures else ""))
        for name, v in rows[workload]["metrics"].items():
            print(f"{workload:14} {name:12} parent {v['parent']['median']:.6g} "
                  f"[{v['parent']['q1']:.6g}, {v['parent']['q3']:.6g}]  change "
                  f"{v['change']['median']:.6g} [{v['change']['q1']:.6g}, "
                  f"{v['change']['q3']:.6g}]  wins {v['wins']}  {v['gain']}  "
                  f"bound {v['bound']}")
    print(json.dumps(rows, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
