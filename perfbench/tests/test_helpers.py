"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads
from rng import Rng
from stats import percentile
from tracing import MARKER, Tracer, per_layer_names
from turns import Turns

ROOT = Path(__file__).resolve().parents[2]


# -- generator ---------------------------------------------------------------------


def test_generator_first_outputs_pinned():
    rng = Rng(0)
    assert [rng.next64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]
    rng = Rng(0)
    assert [rng.randrange(0, 1000) for _ in range(5)] == [904, 441, 27, 994, 108]


def test_workload_inputs_pinned_for_default_seed():
    seed = workloads.DEFAULT_SEED
    assert workloads.Scan(seed).scan_seeds[:3] == [3706797269, 227064369, 913511124]
    query = workloads.Query(seed)
    assert query.curves[0][0] == 4295914639762282879
    assert query.evals[0] == (0, 4204325607799276080, False)
    assert query.sums[:2] == [
        (78259, 17989, 45858, 57504, 42735, 2, 305415),
        (12953, 399, 3663, 9327, 440, 4, 976428),
    ]
    seeds = [kwargs.get("seed") for _, kwargs, _ in workloads.Battery(seed).calls]
    assert [s for s in seeds if s is not None] == [3706797269, 227064369, 913511124]


def test_randrange_stays_in_range():
    rng = Rng(7)
    for lo, hi in ((0, 1), (5, 9), (1 << 61, 1 << 62), (-3, 200)):
        for _ in range(200):
            assert lo <= rng.randrange(lo, hi) < hi
    with pytest.raises(ValueError):
        rng.randrange(4, 4)


# -- spans and self time ------------------------------------------------------------


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 5] (which holds C [2, 4]) and B [6, 7]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 7, 10]))
    a, b, c = (tracer.name_index(n) for n in "ABC")
    sa = tracer.open(a)
    sb = tracer.open(b)
    sc = tracer.open(c)
    tracer.close(sc)
    tracer.close(sb)
    sb2 = tracer.open(b)
    tracer.close(sb2)
    tracer.close(sa)
    agg = tracer.aggregate()
    assert agg["A"] == {"calls": 1, "busy_s": 10, "self_s": 10 - 4 - 1}
    assert agg["B"] == {"calls": 2, "busy_s": 5, "self_s": (4 - 2) + 1}
    assert agg["C"] == {"calls": 1, "busy_s": 2, "self_s": 2}
    assert list(tracer.parent) == [-1, 0, 1, 0]


def test_recursive_span_counts_busy_time_once():
    # A [0, 10] holds A [2, 5]
    tracer = Tracer(clock=FakeClock([0, 2, 5, 10]))
    a = tracer.name_index("A")
    outer = tracer.open(a)
    inner = tracer.open(a)
    tracer.close(inner)
    tracer.close(outer)
    assert tracer.aggregate()["A"] == {"calls": 2, "busy_s": 10, "self_s": 10}


# -- percentiles --------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(ValueError):
        percentile(list(range(999)), 0.99)
    assert percentile(list(range(200)), 0.95) == 189
    with pytest.raises(ValueError):
        percentile(list(range(199)), 0.95)
    assert percentile(list(range(20)), 0.5) == 9
    with pytest.raises(ValueError):
        percentile(list(range(19)), 0.5)


# -- wrappers -------------------------------------------------------------------------


def _wrapped_objects() -> list[str]:
    """Every wrapper left in an edschar module namespace or class."""
    found = []
    for ns in tracing._edschar_namespaces():
        for key, value in vars(ns).items():
            if hasattr(value, MARKER):
                found.append(f"{ns.__name__}.{key}")
            if isinstance(value, type):
                found += [
                    f"{value.__qualname__}.{k}" for k, v in vars(value).items() if hasattr(v, MARKER)
                ]
    return found


def test_wrappers_cover_every_importing_namespace_and_are_removed():
    import edschar.curve
    import edschar.eds
    import edschar.harness

    originals = (edschar.curve.group_structure, edschar.eds.PsiEvaluator.psi)
    tracer = Tracer()
    with tracer.installed():
        assert getattr(edschar.harness.group_structure, MARKER) == "curve.group_structure"
        assert getattr(edschar.curve.group_structure, MARKER) == "curve.group_structure"
        assert getattr(edschar.eds.PsiEvaluator.psi, MARKER) == "eds.PsiEvaluator.psi"
        tracer.recording = True
        edschar.harness.scan_prime(101, 0)
        tracer.recording = False
        edschar.harness.scan_prime(103, 0)  # not recorded
    assert _wrapped_objects() == []
    assert (edschar.curve.group_structure, edschar.eds.PsiEvaluator.psi) == originals
    assert edschar.harness.group_structure is edschar.curve.group_structure

    agg = tracer.aggregate()
    assert agg["harness.scan_prime"]["calls"] == 1
    assert agg["curve.group_structure"]["calls"] >= 1
    # the group-structure span sits inside the scan_prime span
    names = [tracer.names[i] for i in tracer.name]
    gs = names.index("curve.group_structure")
    chain = []
    sid = tracer.parent[gs]
    while sid >= 0:
        chain.append(names[sid])
        sid = tracer.parent[sid]
    assert chain[-1] == "harness.scan_prime"


# -- workloads ------------------------------------------------------------------------


def test_one_seed_gives_identical_outputs():
    def small_query():
        q = workloads.Query(3)
        q.evals = q.evals[:24]
        return q.run(26, None)

    first, second = small_query(), small_query()
    assert first["tally"].failed == 0 and first["tally"].attempted == 26
    assert first["tally"].digest() == second["tally"].digest()
    assert first["work"] == second["work"]
    assert set(first["times"]) == set(second["times"])
    summary = workloads.Query.summarize(first["times"], first["work"])
    assert summary["samples"] == {"evals": 24, "sums2_ops": 1, "sumsd_ops": 1}


def test_speedups_are_reference_over_program_on_common_ops():
    program = {"1w:7:5": 1.0, "1w:7:7": 3.0, "1w:7:11": 2.0, "2w:7": 4.0, "1w:7:13": 9.0}
    reference = {"1w:7:5": 2.0, "1w:7:7": 3.0, "1w:7:11": 4.0, "2w:7": 2.0}
    got = workloads.speedups(workloads.Scan, program, reference)
    assert got == {"speedup": 9.0 / 6.0, "speedup2": 0.5, "latency_speedup": 3.0 / 2.0}
    # battery's latency is the whole pass, not a median
    program = {"0:sweep_weil": 1.0, "1:sweep_recurrence": 1.0, "2:sweep_small_fields": 2.0}
    reference = {"0:sweep_weil": 2.0, "1:sweep_recurrence": 3.0, "2:sweep_small_fields": 4.0}
    got = workloads.speedups(workloads.Battery, program, reference)
    assert got == {"speedup": 2.0, "speedup2": 3.0, "latency_speedup": 9.0 / 4.0}
    assert workloads.speedups(workloads.Battery, {"0:sweep_weil": 1.0}, {"0:sweep_weil": 1.0}) == {}


def test_turns_hand_over_after_each_quantum_and_count_the_wait():
    exchanges = []
    clock = FakeClock([0.0, 0.01, 0.03, 0.05, 0.06, 0.08, 0.1, 0.2, 0.25])
    turns = Turns(lambda: exchanges.append(1), quantum_s=0.02, clock=clock)
    turns.point()  # at 0.01: within the quantum
    turns.point()  # at 0.03: hands over, its turn comes back at 0.05
    assert (len(exchanges), turns.waited) == (1, pytest.approx(0.02))
    turns.point()  # at 0.06
    turns.point()  # at 0.08: hands over until 0.1
    assert turns.handovers == 2 and turns.waited == pytest.approx(0.04)
    turns.point()  # at 0.2: hands over again, until 0.25
    assert turns.handovers == 3 and turns.waited == pytest.approx(0.09)
    assert Turns().exchange is None  # a lone process never waits


def test_turn_points_time_each_call_and_are_removed():
    import edschar.harness

    original = edschar.harness.scan_prime
    turns = Turns()
    with turns.at(("harness.scan_prime",)):
        assert edschar.harness.scan_prime is not original
        edschar.harness.sweep_scan(5, 30, 0)
    assert edschar.harness.scan_prime is original
    assert len(turns.calls["harness.scan_prime"]) == 8  # primes 5 .. 29


def test_sizes_fit_the_run():
    for cls in (workloads.Scan, workloads.Query, workloads.Battery):
        assert cls(workloads.DEFAULT_SEED).ops_for(30) >= 1
    battery = workloads.Battery(workloads.DEFAULT_SEED)
    assert battery.ops_for(30) % len(battery.calls) == 0


def test_reference_copy_is_a_whole_package():
    import worker

    ref = worker.CODE["reference"] / "edschar"
    names = {path.name for path in ref.glob("*.py")}
    assert {"__init__.py", "field.py", "curve.py", "eds.py", "symbolic.py", "charsum.py", "harness.py"} <= names


def test_battery_checks_counts_and_failures():
    battery = workloads.Battery(workloads.DEFAULT_SEED)
    driver, kwargs, want = battery.calls[0]
    assert want == {"tuples": 300, "views": 300}
    battery.calls = [("sweep_recurrence", {"n_tuples": 5, "seed": 1}, {"tuples": 6})]
    res = battery.run(1, None)
    assert (res["tally"].attempted, res["tally"].failed) == (1, 1)
    assert res["times"] == {}
    assert "metrics" not in workloads.Battery.summarize(res["times"], res["work"])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
