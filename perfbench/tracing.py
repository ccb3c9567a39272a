"""Per-layer spans recorded from outside the program.

A Tracer wraps the public names listed in TARGETS.  Each call records one span:
its name, start, end, parent span and op id.  Spans stay in memory (flat
arrays) until the run ends.  A function is replaced in every edschar module
namespace that holds it, not only in the module that defines it: harness and
charsum do ``from .curve import group_structure``, so patching edschar.curve
alone would miss the calls sweep_weil and the Weil grids make.  Methods are
replaced on their class.

Self time is a span's duration minus the time its direct children cover.  Busy
time counts only the outermost span of a name, so a recursive call is not
counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

# (metric name, edschar module, attribute path inside the module)
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("field.chi_table", "field", "PrimeField.chi_table"),
    ("field.factorize", "field", "factorize"),
    ("curve.group_structure", "curve", "group_structure"),
    ("curve.point_order", "curve", "point_order"),
    ("curve.enumerate_points", "curve", "enumerate_points"),
    ("curve.curve_order", "curve", "curve_order"),
    ("eds.PsiEvaluator.psi", "eds", "PsiEvaluator.psi"),
    ("eds.psi_window", "eds", "psi_window"),
    ("eds.psi_sequence", "eds", "psi_sequence"),
    ("eds.EdsView", "eds", "EdsView.__init__"),
    ("eds.sequence_period", "eds", "sequence_period"),
    ("symbolic.division_poly_tower", "symbolic", "division_poly_tower"),
    ("symbolic.psi_symbolic", "symbolic", "psi_symbolic"),
    ("charsum.chi_window", "charsum", "chi_window"),
    ("charsum.chi_period", "charsum", "chi_period"),
    ("charsum.bias_report", "charsum", "bias_report"),
    ("charsum.complete_sum", "charsum", "complete_sum"),
    ("charsum.order_d_sums", "charsum", "order_d_sums"),
    ("charsum.complete_spectrum", "charsum", "complete_spectrum"),
    ("charsum.small_character_subgroups", "charsum", "small_character_subgroups"),
    ("charsum.subgroup_mask", "charsum", "subgroup_mask"),
    ("charsum.averaged_spectrum", "charsum", "averaged_spectrum"),
    ("harness.scan_prime", "harness", "scan_prime"),
    ("harness.sweep_scan", "harness", "sweep_scan"),
    ("harness.sweep_recurrence", "harness", "sweep_recurrence"),
    ("harness.sweep_small_fields", "harness", "sweep_small_fields"),
    ("harness.sweep_index_product", "harness", "sweep_index_product"),
    ("harness.sweep_oracle_equivalence", "harness", "sweep_oracle_equivalence"),
    ("harness.sweep_oracle_random", "harness", "sweep_oracle_random"),
    ("harness.sweep_weil", "harness", "sweep_weil"),
    ("harness.cmd_sums", "harness", "cmd_sums"),
)

# extra counts taken from a wrapped call's result: span -> (suffix, count)
COUNTERS = {
    "curve.group_structure": ("noncyclic", lambda result: int(result.l > 1)),
    "eds.psi_window": ("terms", lambda result: len(result) - 1),
    "charsum.chi_window": ("terms", lambda result: len(result)),
}

MARKER = "_perfbench_span"


def _edschar_namespaces() -> list:
    return [
        mod
        for key, mod in list(sys.modules.items())
        if key == "edschar" or key.startswith("edschar.")
    ]


def patch(names, wrap) -> list[tuple[object, str, object]]:
    """Replace each TARGETS entry named in `names` by wrap(name, original) in
    every edschar namespace that holds it, or on its class for a method.
    Returns the patches, for unpatch()."""
    patches = []

    def put(owner, attr, value):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for name, modname, path in TARGETS:
        if name not in names:
            continue
        module = importlib.import_module(f"edschar.{modname}")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            put(owner, attr, wrap(name, owner.__dict__[attr]))
            continue
        original = getattr(module, attr)
        wrapper = wrap(name, original)
        for ns in _edschar_namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    put(ns, key, wrapper)
    return patches


def unpatch(patches: list[tuple[object, str, object]]) -> None:
    while patches:
        owner, attr, original = patches.pop()
        setattr(owner, attr, original)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._active: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = [-1]
        self.op_id = -1
        # off outside timed ops, so that output checks record no spans
        self.recording = False
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording --------------------------------------------------------

    def name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return idx

    def open(self, idx: int) -> int:
        sid = len(self.name)
        self.name.append(idx)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.outer.append(self._active[idx] == 0)
        self._active[idx] += 1
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        if self.stack[-1] == sid:
            self.stack.pop()
        else:  # a generator closed out of order
            self.stack.remove(sid)
        self._active[self.name[sid]] -= 1

    def wrap(self, name: str, fn):
        idx = self.name_index(name)
        counter = COUNTERS.get(name)
        if counter is not None:
            key, count = f"{name}.{counter[0]}", counter[1]
            self.counters.setdefault(key, 0)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    yield from fn(*args, **kwargs)
                    return
                sid = tracer.open(idx)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(sid)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                sid = tracer.open(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(sid)
                if counter is not None:
                    tracer.counters[key] += count(result)
                return result

        setattr(wrapper, MARKER, name)
        return wrapper

    # -- installing and removing wrappers --------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("wrappers already installed")
        self._patches = patch({name for name, _, _ in TARGETS}, self.wrap)

    def remove(self) -> None:
        unpatch(self._patches)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- results -----------------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """{name: {"calls", "busy_s", "self_s"}} over every recorded span."""
        n = len(self.name)
        start, end, parent = self.start, self.end, self.parent
        covered = [0.0] * n
        for sid in range(n):
            if parent[sid] >= 0:
                covered[parent[sid]] += end[sid] - start[sid]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for sid in range(n):
            dur = end[sid] - start[sid]
            rec = out[self.names[self.name[sid]]]
            rec["calls"] += 1
            rec["self_s"] += dur - covered[sid]
            if self.outer[sid]:
                rec["busy_s"] += dur
        return out

    def durations(self, name: str) -> list[float]:
        idx = self._index.get(name)
        return [
            self.end[sid] - self.start[sid]
            for sid in range(len(self.name))
            if self.name[sid] == idx
        ]

    def write(self, path) -> None:
        """One tab-separated line per span: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for sid in range(len(self.name)):
                fh.write(
                    f"{sid}\t{self.names[self.name[sid]]}\t{self.start[sid]:.9f}\t"
                    f"{self.end[sid]:.9f}\t{self.parent[sid]}\t{self.op[sid]}\n"
                )


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name, _, _ in TARGETS:
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
        if name in COUNTERS:
            out.append((f"{name}.{COUNTERS[name][0]}", "count"))
    out += [
        ("harness.scan_prime.p50_ms", "ms"),
        ("harness.scan_prime.p95_ms", "ms"),
        ("harness.sweep_scan.parallel_efficiency", "ratio"),
        ("trace.overhead_s", "s"),
    ]
    return out
