"""Tests of the benchmark's own code: inputs, span arithmetic, wrappers,
and the host-speed gauge."""

import importlib
import json
import signal
import time
from pathlib import Path

import pytest

import reference
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Seeded inputs.


@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_seed_gives_same_inputs(seed):
    assert workloads.hard_inputs(seed) == workloads.hard_inputs(seed)
    assert workloads.verify_order(seed) == workloads.verify_order(seed)
    assert workloads.corpus_inputs(ROOT, seed) == \
        workloads.corpus_inputs(ROOT, seed)


def test_seeds_differ():
    draws = {json.dumps(workloads.hard_inputs(seed)) for seed in range(10)}
    assert len(draws) == 10


def test_default_seed_starts_with_roadmap_hard_set():
    first = workloads.hard_inputs(0)[:3]
    assert [doc for _, doc in first] == [
        {"kind": "jacobian", "base_field": "Q", "poly": [-2, 0, 0, 0, 0, 1]},
        {"kind": "elliptic", "base_field": "Q(sqrt-2)",
         "cubic": [-2, 0, 0, 1]},
        {"kind": "weil_restriction", "base_field": "Q", "D": 3,
         "cubic": ["-1-s", "-1", "0", "1"]},
    ]


@pytest.mark.parametrize("seed", range(20))
def test_hard_pass_shape(seed):
    items = workloads.hard_inputs(seed)
    ids = [item_id for item_id, _ in items]
    assert len(ids) == 12 and len(set(ids)) == 12
    kinds = [doc["kind"] for _, doc in items]
    assert kinds == ["jacobian", "elliptic", "weil_restriction"] * 4
    weils = {item_id for item_id in ids if item_id.startswith("weil")}
    assert weils == {item_id for item_id, _ in workloads.hard_families()[2]}


def test_orders_are_permutations():
    for seed in range(5):
        assert sorted(workloads.verify_order(seed)) == \
            sorted(workloads.CHECK_IDS)
        stems = [stem for stem, _ in workloads.corpus_inputs(ROOT, seed)]
        assert sorted(stems) == sorted(p.stem for p in
                                       (ROOT / "corpus").glob("*.json"))


def test_truth_table_covers_every_family_member():
    truth = workloads.load_golden("hard_truth.json")
    members = [item_id for family in workloads.hard_families()
               for item_id, _ in family]
    assert sorted(truth) == sorted(members)
    for family in workloads.hard_families():
        for item_id, doc in family:
            assert truth[item_id]["input"] == doc


# ---------------------------------------------------------------------------
# Expectation checks.


def _cert(status, torsion, primes, witness=None):
    steps = [{"kind": "computed", "description": "x",
              "values": {"primes": primes}}]
    if witness is not None:
        steps.append({"kind": "computed", "description": "v",
                      "values": {"status": status, "witness_prime": witness}})
    return {"verdict": {"status": status, "torsion_field_degree": torsion,
                        "galois_closure_degree": None},
            "certificate": steps}


def test_check_hard_accepts_and_rejects():
    truth = workloads.load_golden("hard_truth.json")
    jac = "jacobian_x5_minus_3"
    assert workloads.check_hard(
        jac, _cert("not_heavenly", 20, [3, 5], 3), truth) is None
    assert workloads.check_hard(jac, _cert("unknown", 20, [3, 5]), truth)
    assert workloads.check_hard(
        jac, _cert("not_heavenly", 6, [3, 5], 3), truth)
    assert workloads.check_hard(
        jac, _cert("not_heavenly", 20, [3], 3), truth)
    weil = "weil_two_cubic_D6"
    assert workloads.check_hard(weil, _cert("unknown", 72, [3]), truth) \
        is None
    assert workloads.check_hard(weil, _cert("unknown", 72, [5]), truth)
    assert workloads.check_hard(weil, _cert("heavenly", 72, [3]), truth)


def test_certificate_body_drops_only_the_timing():
    text = '{\n  "verdict": {},\n  "elapsed_seconds": 0.123456\n}'
    assert workloads.certificate_body(text) == '{\n  "verdict": {}\n}'


# ---------------------------------------------------------------------------
# Span arithmetic.


def _clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_and_inclusive_time_on_nested_spans():
    # A [0, 10] contains B [1, 4] and C [5, 9]; C contains B [6, 8]
    tracer = tracing.Tracer(clock=_clock([0, 1, 4, 5, 6, 8, 9, 10]))
    tracer.enter("A")
    tracer.enter("B")
    tracer.exit()
    tracer.enter("C")
    tracer.enter("B")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    summary = tracing.summarize(tracer.spans)
    assert summary["A"] == {"calls": 1, "self_s": 3, "incl_s": 10}
    assert summary["B"] == {"calls": 2, "self_s": 5, "incl_s": 5}
    assert summary["C"] == {"calls": 1, "self_s": 2, "incl_s": 4}
    assert sum(e["self_s"] for e in summary.values()) == 10


def test_recursion_is_not_counted_twice_inclusive():
    # A [0, 10] contains A [2, 7], which contains B [3, 4]
    spans = [["A", 0, 10, None], ["A", 2, 7, 0], ["B", 3, 4, 1]]
    summary = tracing.summarize(spans)
    assert summary["A"] == {"calls": 2, "self_s": 9, "incl_s": 10}
    assert summary["B"] == {"calls": 1, "self_s": 1, "incl_s": 1}


def test_spans_close_when_the_wrapped_call_raises():
    tracer = tracing.Tracer(clock=_clock([0, 3]))
    layer = tracing.Layer("x.boom", "heavenly.errors", "InputError", ())

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracing._wrap(tracer, layer, boom)()
    assert tracer.spans == [["x.boom", 0, 3, None]]


# ---------------------------------------------------------------------------
# Wrapper installation.


def _bindings():
    out = {}
    for layer in tracing.LAYERS:
        for name in layer.consumers:
            module = importlib.import_module(name)
            out[(name, layer.attr)] = getattr(module, layer.attr)
    return out


def test_every_consumer_binding_is_the_original_function():
    for layer in tracing.LAYERS:
        original = getattr(importlib.import_module(layer.module), layer.attr)
        for name in layer.consumers:
            assert getattr(importlib.import_module(name), layer.attr) \
                is original, (name, layer.attr)


def test_install_then_uninstall_restores_every_binding():
    before = _bindings()
    patched = tracing.install(tracing.Tracer())
    assert len(patched) == len(before)
    assert all(_bindings()[key] is not fn for key, fn in before.items())
    tracing.uninstall(patched)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is fn for key, fn in before.items())


def test_wrappers_record_calls_and_counters():
    towers = importlib.import_module("heavenly.towers")
    from heavenly.polynomials import UniPoly

    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        towers.factor_over_q(UniPoly.of(-2, 0, 1))
    finally:
        tracing.uninstall(patched)
    summary = tracing.summarize(tracer.spans)
    assert summary["factorization.factor_over_q"]["calls"] == 1
    assert tracer.counters["factorization.factor_over_q.degree_sum"] == 2


def test_prediction_table_names_known_layers():
    timed = set(tracing._TIMED)
    for table in (tracing.PREDICTED_CALLS, tracing.PREDICTED_IDLE):
        assert set(table) == set(workloads.WORKLOADS)
        for layers in table.values():
            assert set(layers) <= timed
    for workload in workloads.WORKLOADS:
        assert not set(tracing.PREDICTED_CALLS[workload]) & \
            set(tracing.PREDICTED_IDLE[workload])


# ---------------------------------------------------------------------------
# Declarations and statistics.


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert spec["per_layer"] == tracing.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(range(19)) is None
    assert run.tail_percentile(range(1, 21)) == (50, 10)
    assert run.tail_percentile(range(1, 101)) == (90, 90)
    assert run.tail_percentile(range(1, 1001)) == (99, 990)


# ---------------------------------------------------------------------------
# Host-speed gauge.


def _gauge(samples):
    gauge = reference.Gauge()
    gauge.starts = [s for s, _ in samples]
    gauge.ends = [e for _, e in samples]
    return gauge


def test_gauge_removes_kernel_time_and_converts_to_kernel_units():
    # two 0.1 s kernel samples inside a 2 s window, one on each side
    gauge = _gauge([(0.0, 0.1), (1.0, 1.1), (1.5, 1.6), (3.0, 3.1)])
    assert gauge.seconds(0.5, 2.5) == pytest.approx(1.8)
    assert gauge.units(0.5, 2.5) == pytest.approx(18.0)


def test_gauge_rate_is_the_mean_rate_of_the_window_and_its_neighbours():
    # a slow state (0.2 s per kernel) and a fast one (0.1 s)
    gauge = _gauge([(0.0, 0.2), (1.0, 1.1), (2.0, 2.1), (5.0, 5.1)])
    # window 1.2..1.8 holds no sample: its neighbours are at 1.0 and 2.0
    assert gauge.units(1.2, 1.8) == pytest.approx(0.6 * 10)
    # window 0.5..1.5 reaches back to the slow sample at 0.0
    assert gauge.units(0.5, 1.5) == pytest.approx(0.9 * (5 + 10 + 10) / 3)


def test_gauge_samples_while_active_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    gauge = reference.Gauge(interval_s=0.03)
    with gauge:
        end = time.monotonic() + 0.2
        while time.monotonic() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(gauge.starts) > 2 * reference.EDGE_REPS
    assert gauge.starts == sorted(gauge.starts)
    assert gauge.units(gauge.starts[0], gauge.ends[-1]) > 0
