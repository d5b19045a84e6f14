"""Span tracer that wraps the program's public functions from outside.

Nothing in the program knows about it: ``install`` rebinds module and class
attributes to wrappers and ``uninstall`` puts the originals back.  Spans
(name, start, end, parent span, request id) are kept in flat arrays while
the workload runs and written out once it ends.  Hot predicates get a call
counter only, because a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import Counter

# Span layers in report order.  Each entry: metric name, then the
# (module, dotted attribute) places the same function is reachable from.
# Module-level rebinds (``from .faces import split_regions``) are wrapped
# at every place, or the calls through the other name would be missed.
SPANS = [
    ("quiver.mutate", [("quiver", "ColoredQuiver.mutate")]),
    ("quiver.mutate_procedural", [("quiver", "ColoredQuiver.mutate_procedural")]),
    ("quiver.mutate_inverse", [("quiver", "ColoredQuiver.mutate_inverse")]),
    ("quiver.validate", [("quiver", "ColoredQuiver.validate")]),
    ("faces.split_regions", [("faces", "split_regions"), ("disk", "split_regions")]),
    ("faces.quiver_from_faces", [("faces", "quiver_from_faces"),
                                 ("disk", "quiver_from_faces"),
                                 ("annulus", "quiver_from_faces")]),
    ("disk.enumerate_angulations", [("disk", "enumerate_angulations")]),
    ("disk.maximal_set_sizes", [("disk", "maximal_set_sizes")]),
    ("disk.flip_graph", [("disk", "flip_graph")]),
    ("disk.flip", [("disk", "DiskAngulation.flip")]),
    ("disk.quiver_of", [("disk", "DiskAngulation.quiver_of")]),
    ("disk.violations", [("disk", "DiskAngulation.violations")]),
    ("disk.completions", [("disk", "completions")]),
    ("disk.cut_along", [("disk", "cut_along")]),
    ("annulus.flip", [("annulus", "AnnulusAngulation.flip")]),
    ("annulus.violations", [("annulus", "AnnulusAngulation.violations")]),
    ("annulus.faces", [("annulus", "AnnulusAngulation.faces")]),
    ("annulus.quiver_of", [("annulus", "AnnulusAngulation.quiver_of")]),
    ("annulus.completions", [("annulus", "completions")]),
    ("verify.check_flip_mutation", [("verify", "check_flip_mutation")]),
    ("verify.check_flip_cycle", [("verify", "check_flip_cycle")]),
    ("verify.check_axioms", [("verify", "check_axioms")]),
    ("verify.check_counts", [("verify", "check_counts")]),
    ("verify.check_connectivity", [("verify", "check_connectivity")]),
    ("verify.check_gabriel", [("verify", "check_gabriel")]),
    ("verify.check_cut_transport", [("verify", "check_cut_transport")]),
    ("verify.check_annulus_maximal", [("verify", "check_annulus_maximal")]),
    ("cli.main", [("cli", "main")]),
    ("cli.cmd_flip", [("cli", "cmd_flip")]),
    ("cli.cmd_quiver", [("cli", "cmd_quiver")]),
    ("cli.cmd_mutate", [("cli", "cmd_mutate")]),
    ("cli.cmd_validate", [("cli", "cmd_validate")]),
]
# split_regions recurses through its module-global name: only the
# outermost call is a face rebuild.
OUTERMOST = {"faces.split_regions"}
COUNTED = [
    ("disk.crosses", [("disk", "crosses")]),
    ("annulus.crosses", [("annulus", "crosses")]),
    ("annulus.to_disk", [("annulus", "BridgeCut.to_disk")]),
]
# a generator: each resume is one span, each yielded case one step
WALK = ("verify.random_walk", [("verify", "random_walk")])
FLIPS = ("disk.flip", "annulus.flip")


def _resolve(program, module, dotted):
    owner = getattr(program, module)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")
        self.request = 0
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (name, exception class) -> calls
        self._stack: list[int] = []
        self._cells: dict[str, list[int]] = {}  # count-only probes
        self._undo: list[tuple] = []
        self.unhooked: list[str] = []  # places the program no longer has

    # -- recording --------------------------------------------------------

    def _open(self, nid):
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn, active):
        nid = self.names.index(name)
        outermost = name in OUTERMOST
        count_nodes = name == "disk.flip_graph"
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost:
                if active:
                    return fn(*args, **kwargs)
                active.append(True)
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
                if count_nodes:
                    self.counts["disk.flip_graph.nodes"] += len(result.nodes)
                return result
            except Exception as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                close(idx)
                if outermost:
                    active.pop()

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _walk_wrapper(self, name, fn):
        nid = self.names.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[name + ".steps"] += 1
                yield item

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, program, places, make):
        """Wrap the function at each place that exists.  A place that a
        later version of the program no longer has is listed in
        ``unhooked``: its layer may read zero because the probe is gone,
        not because the work is."""
        for module, dotted in places:
            try:
                owner, attr = _resolve(program, module, dotted)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.unhooked.append(f"{module}.{dotted}")
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def install(self, program):
        self.names = [name for name, _ in SPANS] + [WALK[0]]
        for name, places in SPANS:
            active: list = []
            self._patch(program, places,
                        lambda fn, n=name, a=active: self._span_wrapper(n, fn, a))
        for name, places in COUNTED:
            self._patch(program, places,
                        lambda fn, n=name: self._count_wrapper(n, fn))
        self._patch(program, WALK[1], lambda fn: self._walk_wrapper(WALK[0], fn))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        for name, cell in self._cells.items():
            self.counts[name] += cell[0]

    # -- results ------------------------------------------------------------

    def layer_totals(self):
        """Per span name: calls, inclusive seconds, self seconds.

        Self time is a span's duration minus the durations of its direct
        child spans; time in unwrapped code counts to the nearest wrapped
        caller.
        """
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        own = [0.0] * n
        starts, ends, parents, nids = self.starts, self.ends, self.parents, self.name_ids
        for i in range(len(starts)):
            d = ends[i] - starts[i]
            nid = nids[i]
            calls[nid] += 1
            total[nid] += d
            own[nid] += d
            p = parents[i]
            if p >= 0:
                own[nids[p]] -= d
        return {
            name: (calls[i], total[i], own[i]) for i, name in enumerate(self.names)
        }

    def flips_under(self, parent_name):
        """Flip spans whose direct parent is a ``parent_name`` span."""
        pid = self.names.index(parent_name)
        flip_ids = {self.names.index(f) for f in FLIPS}
        nids, parents = self.name_ids, self.parents
        return sum(
            1 for i in range(len(nids))
            if nids[i] in flip_ids and parents[i] >= 0 and nids[parents[i]] == pid
        )

    def write(self, path):
        """Spans as gzipped TSV: name, start, end, parent index, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\trequest\n")
            names = self.names
            for i in range(len(self.starts)):
                out.write(
                    f"{names[self.name_ids[i]]}\t{self.starts[i]:.9f}\t"
                    f"{self.ends[i]:.9f}\t{self.parents[i]}\t{self.requests[i]}\n"
                )
