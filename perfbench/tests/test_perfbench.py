"""Fast checks of the benchmark's own machinery, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ybnichols import catalog, nichols, orbits  # noqa: E402

PI4 = (2, 0, 3, 1)


def _declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


# -- seeded inputs


def test_relabelling_preserves_graded_dims():
    for name, cap in (("w1", 5), ("x4-sigma", 6), ("z3-shift", 6)):
        cs = catalog.build_entry(name).system
        moved = inputs.relabel_system(cs, {3: (1, 0, 2), 4: PI4}[cs.size])
        assert moved != cs
        before = nichols.graded_dims(cs, cap=cap, mode="exact", exact_cap=4 ** cap)
        after = nichols.graded_dims(moved, cap=cap, mode="exact", exact_cap=4 ** cap)
        assert before.dims == after.dims, name


def test_relabelled_relations_still_vanish():
    entry = catalog.build_entry("x4-sigma")
    cs = inputs.relabel_system(entry.system, PI4)
    for _, terms in entry.relations:
        assert nichols.check_relation(cs, inputs.relabel_terms(terms, PI4))


def test_relabelling_preserves_census():
    s = catalog.build_entry("x4-sigma").solution
    moved = inputs.relabel_solution(s, PI4)
    assert moved != s
    assert orbits.orbit_census(5, s).to_json() == orbits.orbit_census(5, moved).to_json()


def test_generators_repeat_per_seed():
    a, b = inputs.rng_for("census", 7, 0), inputs.rng_for("census", 7, 0)
    words = [inputs.random_word(a, 3, (4, 9)) for _ in range(5)]
    assert words == [inputs.random_word(b, 3, (4, 9)) for _ in range(5)]
    assert all(4 <= len(w) <= 9 for w in words)
    s = inputs.permutation_solution(inputs.rng_for("census", 7, 1), 6)
    assert s == inputs.permutation_solution(inputs.rng_for("census", 7, 1), 6)
    census = orbits.orbit_census(3, s)
    assert workloads._check_census(3, 6)(census) == []


# -- expected values and checks


def test_expected_profiles():
    assert workloads.finite_profile(4, 2) == (1, 4, 6, 4, 1, 0)
    assert sum(workloads.finite_profile(4, 3)) == 81
    assert workloads.Z4_SHIFT2_PROFILE == (1, 4, 8, 10, 8, 4, 1, 0)
    assert workloads.growth_profile(3, 3) == (1, 3, 6, 10)
    assert workloads.word_orbit_size((2, 1)) == 3
    assert workloads.partition_count((2, 1), 3) == 6


def test_wrong_expected_value_is_a_failed_job():
    cs = inputs.relabel_system(catalog.build_entry("z2-shift").system, (1, 0))
    graded = nichols.graded_dims(cs, cap=16, mode="exact")
    right = workloads._check_finite(cs, workloads.finite_profile(2, 2), True)
    wrong = workloads._check_finite(cs, workloads.finite_profile(2, 3), True)
    assert right(graded) == []
    assert wrong(graded)

    def boom():
        raise ValueError("no answer")

    jobs = [
        workloads.Job("right", lambda: graded, right),
        workloads.Job("wrong", lambda: graded, wrong),
        workloads.Job("raises", boom, workloads._check_true),
    ]
    result = run.run_pass(jobs)
    assert result.jobs == 3
    assert [f["job"] for f in result.failures] == ["wrong", "raises"]


# -- tracing


def _snapshot():
    """Every (owner, attribute) -> object that the tracer may replace."""
    import ybnichols

    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "ybnichols"]
    snap = {}
    for module in modules:
        for key, value in vars(module).items():
            snap[(module.__name__, key)] = value
            if inspect.isclass(value) and value.__module__.startswith(ybnichols.__name__):
                for attr, member in vars(value).items():
                    snap[(module.__name__, key, attr)] = member
    return snap


def test_tracing_restores_every_original():
    cs = catalog.build_entry("z2-shift").system  # fills the catalog's registry cache
    before = _snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = _snapshot()
        changed = {key for key in before if during[key] is not before[key]}
        assert ("ybnichols.nichols", "_Engine", "exact_step") in changed
        assert ("ybnichols.nichols", "apply") in changed  # imported from linalg
        assert ("ybnichols.orbits", "verify_solution") in changed  # imported from ybe
        assert ("ybnichols", "graded_dims") in changed  # the package namespace
        for key in changed:
            assert during[key].__wrapped__ is before[key]
        nichols.graded_dims(cs, cap=4, exact_cap=2)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracing_restores_after_an_error():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer().installed():
            1 / 0
    after = _snapshot()
    assert all(after[key] is before[key] for key in before)


def test_escalation_counters():
    """z2-shift at q = -1 with exact_cap 2: degrees 2 and 3 run modular, the
    vanishing rank at degree 3 escalates, and both degrees replay exactly."""
    tracer = tracing.Tracer()
    cs = catalog.build_entry("z2-shift").system
    with tracer.installed():
        graded = nichols.graded_dims(cs, cap=16, exact_cap=2)
    assert graded.dims == (1, 2, 1, 0)
    metrics = tracing.layer_metrics(tracer, 1.0, 0.5)
    assert metrics["nichols.mod_step.calls"] == 4
    assert metrics["nichols.exact_step.calls"] == 2
    assert metrics["nichols.replayed_steps"] == 2
    assert metrics["nichols.steps_run"] == 6
    assert metrics["nichols.steps_kept"] == 2
    assert metrics["nichols.escalations.vanishing"] == 1
    assert metrics["nichols.escalations.disagree"] == 0
    # seeds per step: (basis size of the degree below) * m, per prime when modular
    assert metrics["nichols.seeds"] == 2 * (2 * 2 + 1 * 2) + (2 * 2 + 1 * 2)
    assert metrics["nichols.tensor_words"] == 2 * (4 + 8) + 4 + 8
    assert metrics["trace.overhead_s"] == 0.5


def test_self_time_arithmetic():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: the union counts once
        ["leaf", 2.0, 3.0, 1, 0],
        ["root", 7.0, 9.0, 0, 0],  # a nested span of the same name
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 3.0, 1.0, 2.0]
    totals = tracing.layer_totals(spans)
    assert totals["root"] == {"s": 10.0, "self_s": 5.0, "calls": 2}
    assert totals["a"] == {"s": 3.0, "self_s": 2.0, "calls": 1}
    assert tracing.covered(0.0, 10.0, [(8.0, 12.0), (-1.0, 1.0)]) == 3.0


# -- metric names


def test_printed_metric_names_are_declared():
    per_layer = tracing.layer_metrics(tracing.Tracer(), 1.0, 1.0)
    assert list(per_layer) == _declared("per_layer")
    passes = [
        run.PassResult(1.0, 0.9, 2, [], [0.25, 0.75], [0.25, 0.5]),
        run.PassResult(2.0, 1.8, 2, [], [0.5, 0.5], [0.125, 1.0]),
    ]
    end_to_end = run.end_to_end_metrics(passes, [0.1, 0.2, 0.3], 50.0)
    assert list(end_to_end) == _declared("end_to_end")
    # each job at its fastest pass: 0.25 + 0.5 wall, 0.125 + 0.5 cpu
    assert end_to_end["wall_s"] == 0.75 and end_to_end["cpu_s"] == 0.625
    assert end_to_end["setup_s"] == 0.2


def test_benchmark_file_contract():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in bench[k]]
    assert len(names) == len(set(names))
