"""Spans around the library's layer boundaries, installed from outside.

A ``Tracer`` replaces each boundary function (and the engine and row-space
methods) by a wrapper that records one span (name, start, end, parent span,
job id) and, for a few of them, counts work done.  Every namespace that holds
a wrapped function gets the wrapper, because ``nichols`` imports
``apply`` and ``mul_rows_elementwise`` from ``linalg`` and several modules
import ``verify_solution`` themselves.  ``uninstall`` puts every original
object back.  CycloElement arithmetic is deliberately not wrapped: a wrapper
per field operation would cost more than the operation, and that time shows
up as the self time of the reference-layer callers.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name); "Class.method" patches the class attribute
LAYERS = (
    ("ybnichols.nichols", "graded_dims", "nichols.graded_dims"),
    ("ybnichols.nichols", "_Engine.exact_step", "nichols.exact_step"),
    ("ybnichols.nichols", "_Engine.mod_step", "nichols.mod_step"),
    ("ybnichols.nichols", "_Engine._c_arrays", "nichols.c_arrays"),
    ("ybnichols.nichols", "_Engine.specialize_rows", "nichols.specialize_rows"),
    ("ybnichols.nichols", "check_relation", "nichols.check_relation"),
    ("ybnichols.nichols", "symmetrizer_apply", "nichols.symmetrizer_apply"),
    ("ybnichols.nichols", "braiding_ops", "nichols.braiding_ops"),
    ("ybnichols.nichols", "degree2_relation_rank", "nichols.degree2_relation_rank"),
    ("ybnichols.nichols", "validate_coefficients", "nichols.validate_coefficients"),
    ("ybnichols.nichols", "hexagon_failures", "nichols.hexagon_failures"),
    ("ybnichols.linalg", "ExactIntRows.insert", "linalg.ExactIntRows.insert"),
    ("ybnichols.linalg", "ModRows.insert", "linalg.ModRows.insert"),
    ("ybnichols.linalg", "RowSpace.insert", "linalg.RowSpace.insert"),
    ("ybnichols.linalg", "mul_rows_by_scalar", "linalg.mul_rows_by_scalar"),
    ("ybnichols.linalg", "mul_rows_elementwise", "linalg.mul_rows_elementwise"),
    ("ybnichols.linalg", "apply", "linalg.apply"),
    ("ybnichols.exact", "specialize", "exact.specialize"),
    ("ybnichols.exact", "primes_for_order", "exact.primes_for_order"),
    ("ybnichols.catalog", "build_entry", "catalog.build_entry"),
    ("ybnichols.ybe", "verify_solution", "ybe.verify_solution"),
    ("ybnichols.ybe", "phi_invariant", "ybe.phi_invariant"),
    ("ybnichols.orbits", "orbit_census", "orbits.orbit_census"),
    ("ybnichols.orbits", "classify", "orbits.classify"),
)

SETUP_JOB = "setup"


class Tracer:
    """Span and counter store for one traced pass; single-threaded."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1, job]
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)
        self._steps = None  # degree steps of the graded_dims call in progress
        self._after = {
            "nichols.exact_step": self._after_exact_step,
            "nichols.mod_step": self._after_mod_step,
            "linalg.ExactIntRows.insert": self._after_insert,
            "linalg.ModRows.insert": self._after_insert,
            "orbits.classify": self._after_classify,
        }

    # -- spans

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        after = self._after.get(name)
        # graded_dims collects the degree steps run beneath it
        scoped = name == "nichols.graded_dims"

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            if scoped:
                saved, self._steps = self._steps, []
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                if scoped:
                    steps, self._steps = self._steps, saved
            if scoped:
                self._after_graded_dims(steps, result)
            elif after is not None:
                after(record, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters

    def _step(self, record, args, kind: str) -> None:
        engine, prev, k = args[0], args[1], args[2]
        self.counts["nichols.seeds"] += len(prev) * engine.m
        self.counts["nichols.tensor_words"] += engine.m ** k
        if self._steps is None:
            return
        replayed = kind == "exact" and any(d == k for _, d, _ in self._steps)
        if replayed:
            self.counts["nichols.replayed_steps"] += 1
            self.counts["nichols.replay_s"] += record[2] - record[1]
        self._steps.append((kind, k, replayed))

    def _after_exact_step(self, record, args, result) -> None:
        self._step(record, args, "exact")
        if any(row.dtype == object for row in result[0]):
            self.counts["nichols.object_promotions"] += 1

    def _after_mod_step(self, record, args, result) -> None:
        self._step(record, args, "modular")

    def _after_graded_dims(self, steps: list, graded) -> None:
        modes = {r.degree: r.mode for r in graded.provenance}
        kept = set()
        for index, (kind, k, _) in enumerate(steps):
            mode = modes.get(k)
            if kind == "modular" and mode == "modular":
                kept.add(index)
            elif kind == "exact" and mode in ("exact", "modular+exact"):
                # only the last exact step at a degree feeds the result
                kept -= {i for i in kept if steps[i][1] == k}
                kept.add(index)
        self.counts["nichols.steps_run"] += len(steps)
        self.counts["nichols.steps_kept"] += len(kept)
        escalated = [r for r in graded.provenance if r.mode == "modular+exact"]
        if escalated:
            trigger = max(escalated, key=lambda r: r.degree)
            if not trigger.agreed:
                reason = "disagree"
            elif trigger.modular_dims and trigger.modular_dims[0] == 0:
                reason = "vanishing"
            else:
                reason = "oracle"
            self.counts[f"nichols.escalations.{reason}"] += 1

    def _after_insert(self, record, args, absorbed) -> None:
        if not absorbed:
            self.counts[record[0] + ".independent"] += 1

    def _after_classify(self, record, args, result) -> None:
        self.counts["orbits.classify.moves"] += len(result.moves)

    # -- installation

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "ybnichols"]
        for module_name, attribute, name in LAYERS:
            owner = sys.modules[module_name]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original))
                continue
            original = getattr(owner, attribute)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# span arithmetic


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(start, end, children.get(index, ()))
        for index, (name, start, end, parent, job) in enumerate(spans)
    ]


def layer_totals(spans) -> dict:
    """name -> {"s": inclusive time, "self_s": self time, "calls": count}.

    Inclusive time counts only the outermost span of a name, so a name that
    calls itself is not counted twice.
    """
    totals = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    selfs = self_times(spans)
    for index, (name, start, end, parent, job) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return dict(totals)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """The per-layer metrics of one traced pass, by their declared names.

    ``traced_wall`` covers only the pass's jobs; spans recorded while the
    pass's inputs were set up (job ``SETUP_JOB``) count in the layer totals
    but not in the attribution of the pass's wall time.
    """
    totals = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    totals.update(layer_totals(tracer.spans))
    counts = tracer.counts
    attributed = sum(
        own
        for own, span in zip(self_times(tracer.spans), tracer.spans)
        if span[4] != SETUP_JOB
    )

    def t(name):
        return totals[name]

    metrics = {
        "nichols.graded_dims.s": t("nichols.graded_dims")["s"],
        "nichols.mod_step.s": t("nichols.mod_step")["s"],
        "nichols.mod_step.self_s": t("nichols.mod_step")["self_s"],
        "nichols.mod_step.calls": t("nichols.mod_step")["calls"],
        "nichols.c_arrays.s": t("nichols.c_arrays")["s"],
        "nichols.c_arrays.calls": t("nichols.c_arrays")["calls"],
        "nichols.specialize_rows.s": t("nichols.specialize_rows")["s"],
        "exact.specialize.calls": t("exact.specialize")["calls"],
        "exact.primes_for_order.s": t("exact.primes_for_order")["s"],
        "nichols.exact_step.s": t("nichols.exact_step")["s"],
        "nichols.exact_step.self_s": t("nichols.exact_step")["self_s"],
        "nichols.exact_step.calls": t("nichols.exact_step")["calls"],
        "nichols.seeds": counts["nichols.seeds"],
        "nichols.tensor_words": counts["nichols.tensor_words"],
        "nichols.replayed_steps": counts["nichols.replayed_steps"],
        "nichols.replay_s": counts["nichols.replay_s"],
        "nichols.steps_run": counts["nichols.steps_run"],
        "nichols.steps_kept": counts["nichols.steps_kept"],
        "nichols.kept_step_ratio": _ratio(
            counts["nichols.steps_kept"], counts["nichols.steps_run"]
        ),
        "nichols.escalations.vanishing": counts["nichols.escalations.vanishing"],
        "nichols.escalations.disagree": counts["nichols.escalations.disagree"],
        "nichols.escalations.oracle": counts["nichols.escalations.oracle"],
        "nichols.object_promotions": counts["nichols.object_promotions"],
        "linalg.ExactIntRows.insert.s": t("linalg.ExactIntRows.insert")["s"],
        "linalg.ExactIntRows.insert.calls": t("linalg.ExactIntRows.insert")["calls"],
        "linalg.ExactIntRows.insert.independent_ratio": _ratio(
            counts["linalg.ExactIntRows.insert.independent"],
            t("linalg.ExactIntRows.insert")["calls"],
        ),
        "linalg.mul_rows_by_scalar.s": t("linalg.mul_rows_by_scalar")["s"],
        "linalg.mul_rows_by_scalar.calls": t("linalg.mul_rows_by_scalar")["calls"],
        "linalg.mul_rows_elementwise.s": t("linalg.mul_rows_elementwise")["s"],
        "linalg.mul_rows_elementwise.calls": t("linalg.mul_rows_elementwise")["calls"],
        "linalg.ModRows.insert.s": t("linalg.ModRows.insert")["s"],
        "linalg.ModRows.insert.calls": t("linalg.ModRows.insert")["calls"],
        "linalg.ModRows.insert.independent_ratio": _ratio(
            counts["linalg.ModRows.insert.independent"], t("linalg.ModRows.insert")["calls"]
        ),
        "nichols.check_relation.s": t("nichols.check_relation")["s"],
        "nichols.symmetrizer_apply.self_s": t("nichols.symmetrizer_apply")["self_s"],
        "nichols.braiding_ops.s": t("nichols.braiding_ops")["s"],
        "linalg.apply.s": t("linalg.apply")["s"],
        "linalg.apply.calls": t("linalg.apply")["calls"],
        "linalg.RowSpace.insert.s": t("linalg.RowSpace.insert")["s"],
        "catalog.build_entry.s": t("catalog.build_entry")["s"],
        "nichols.validate_coefficients.s": t("nichols.validate_coefficients")["s"],
        "nichols.hexagon_failures.s": t("nichols.hexagon_failures")["s"],
        "ybe.verify_solution.s": t("ybe.verify_solution")["s"],
        "ybe.verify_solution.calls": t("ybe.verify_solution")["calls"],
        "ybe.phi_invariant.s": t("ybe.phi_invariant")["s"],
        "orbits.orbit_census.self_s": t("orbits.orbit_census")["self_s"],
        "orbits.classify.s": t("orbits.classify")["s"],
        "orbits.classify.calls": t("orbits.classify")["calls"],
        "orbits.classify.moves": counts["orbits.classify.moves"],
        "trace.spans": len(tracer.spans),
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - attributed,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return metrics
