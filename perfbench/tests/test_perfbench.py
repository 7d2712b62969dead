"""Self-tests of the benchmark harness: span arithmetic, the correctness
gate, the host-speed normalisation, the spec file and the bare-directory
refusal.  None of them runs the package; run with
``python3 -m pytest perfbench/tests``."""
import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

import run
import spans
import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def span(id_, name, parent, start, end, work=None, op=0):
    return {"id": id_, "name": name, "parent": parent, "op": op,
            "start": start, "end": end, "work": work or {}}


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        span(0, "root", None, 0.0, 10.0),
        span(1, "a", 0, 1.0, 4.0),
        span(2, "a1", 1, 2.0, 3.0),        # grandchild: only a loses it
        span(3, "b", 0, 3.0, 6.0),         # overlaps a: [1, 6] covered once
        span(4, "c", 0, 9.0, 12.0),        # runs past root: clipped to [9, 10]
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 3.0})


def test_layer_self_times_add_up_to_the_operation():
    tree = [
        span(0, spans.ROOT_RUN, None, 0.0, 10.0),
        span(1, "screening.check_perfect_screening", 0, 1.0, 7.0,
             work={"screening.solves": 6}),
        span(2, "screening.source_column", 1, 1.0, 2.0),
        span(3, "potentials.vel_fourier", 2, 1.2, 1.8),
        span(4, "screening.assemble_kernel_matrix", 1, 2.0, 6.0,
             work={"screening.kernel_entries": 16}),
        span(5, "potentials.magnetic_capacitor_integrand", 0, 7.0, 9.5),
        span(6, "potentials.wm_pair_fourier", 5, 7.5, 8.0),
        span(7, "potentials.wm_pair_fourier", 5, 8.0, 8.5),
    ]
    m = spans.layer_metrics(tree)
    total = sum(m[name] for name in spans.TIME_METRICS)
    assert total == pytest.approx(10.0)
    assert m["screening.assemble_s"] == pytest.approx(4.0)
    assert m["screening.solve_s"] == pytest.approx(1.0)
    assert m["screening.source_s"] == pytest.approx(1.0)
    assert m["potentials.magnetic_s"] == pytest.approx(1.5)
    assert m["potentials.wm_pair_s"] == pytest.approx(1.0)
    assert m["pipeline.self_s"] == pytest.approx(1.5)
    assert m["potentials.wm_pair_calls"] == 2
    assert m["potentials.vel_fourier_calls"] == 1
    assert m["screening.kernel_entries"] == 16
    assert m["screening.solves"] == 6


def test_every_span_name_belongs_to_exactly_one_time_metric():
    recorded = ({w[2] for w in spans.PACKAGE_WRAPS}
                | {spans.ROOT_RUN, spans.ROOT_CLI, "cli.main", "cli.import"})
    owned = [n for names in spans.TIME_METRICS.values() for n in names]
    assert len(owned) == len(set(owned))
    assert set(owned) == recorded


def test_nested_sampler_spans_count_a_path_once():
    tree = [
        span(0, spans.ROOT_RUN, None, 0.0, 1.0),
        span(1, "loops.sample_bridge", 0, 0.1, 0.3, work={"loops.paths": 1}),
        span(2, "loops.sample_bridge_ensemble", 1, 0.15, 0.25,
             work={"loops.paths": 1}),
        span(3, "loops.sample_bridge_ensemble", 0, 0.5, 0.6,
             work={"loops.paths": 100}),
    ]
    m = spans.layer_metrics(tree)
    assert m["loops.paths"] == 101
    assert m["loops.sample_s"] == pytest.approx(0.3)


def test_recorder_wraps_the_looked_up_attribute_and_restores_it():
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: 2 * mod.inner(x)     # looks inner up on the module
    original = mod.outer
    rec = spans.Recorder()
    rec.wrap(mod, "outer", "fake.outer")
    rec.wrap(mod, "inner", "fake.inner", work=lambda a, k, r: {"n": a[0]})
    rec.wrap(mod, "gone", "fake.gone")
    rec.begin_op()
    assert mod.outer(3) == 8
    rec.begin_op()
    mod.inner(5)
    rec.restore()
    assert mod.outer is original
    assert rec.missing == ["fake.gone"]
    names = [(s["name"], s["parent"], s["op"], s["work"]) for s in rec.spans]
    assert names == [("fake.outer", None, 0, {}), ("fake.inner", 0, 0, {"n": 3}),
                     ("fake.inner", None, 1, {"n": 5})]


def good_report():
    rows = [{"d": d, "f_assembled": -1.0 / d**3, "f_leading": -1.0 / d**3}
            for d in (95.3, 190.7, 381.4)]
    return {"certified_all": True, "results": rows,
            "brackets": {"residual_a": 3e-10, "residual_b": 3e-10}}


def test_gate_rejects_each_kind_of_wrong_run_report():
    assert workloads.gate_run_report(good_report(), 1e-2) == []
    off = good_report()
    off["results"][1]["f_assembled"] *= 1.03
    uncertified = good_report()
    uncertified["certified_all"] = False
    unscreened = good_report()
    unscreened["brackets"]["residual_b"] = 0.05
    for bad in (off, uncertified, unscreened):
        assert len(workloads.gate_run_report(bad, 1e-2)) == 1


def test_gate_rejects_failed_verify():
    assert workloads.gate_verify(0, {"all_passed": True}) == []
    assert workloads.gate_verify(4, {"all_passed": False})
    assert workloads.gate_verify(0, None)


def test_wrong_results_count_in_failed_frac():
    wrong = workloads.gate_run_report({**good_report(), "certified_all": False},
                                      1e-2)
    outcomes = iter([
        ([], "h1"),
        (wrong, "h2"),
        ([], "h3"),                   # same seed, different answer
        None,                         # raises
        ([], "h1"),
    ])
    now = [0.0]                       # each operation takes one clock second

    def op():
        now[0] += 1.0
        outcome = next(outcomes)
        if outcome is None:
            raise RuntimeError("solver blew up")
        return {"problems": list(outcome[0]), "hash": outcome[1]}

    records = workloads.closed_loop(op, seconds=5.0, clock=lambda: now[0])
    assert [r["ok"] for r in records] == [True, False, False, False, True]
    assert [r["wall_s"] for r in records] == [1.0] * 5
    failed = sum(not r["ok"] for r in records)
    assert failed / len(records) == pytest.approx(0.6)


def test_closed_loop_stops_within_half_an_operation_of_the_deadline():
    now = [0.0]

    def op():
        now[0] += 4.0
        return {"problems": [], "hash": "x"}

    records = workloads.closed_loop(op, seconds=10.0, clock=lambda: now[0])
    assert len(records) == 2          # a third would end at 12 > 10 + 4/2


def test_operation_time_is_normalised_by_the_host_speed_it_saw():
    # A host twice as slow doubles both the wall time and the chunk time.
    nominal = speed.NOMINAL_CHUNK_S
    assert speed.normalise(10.0, nominal) == pytest.approx(10.0)
    assert speed.normalise(20.0, 2 * nominal) == pytest.approx(10.0)
    assert speed.normalise(5.0, None) == 5.0

    class FakeSampler:
        samples = []

        def reset(self):
            self.samples = []

    sampler = FakeSampler()
    now = [0.0]

    def op():
        now[0] += 6.0
        sampler.samples = [3 * nominal, 3 * nominal]
        return {"problems": [], "hash": "x"}

    (rec,) = workloads.closed_loop(op, 0.0, clock=lambda: now[0],
                                   sampler=sampler)
    assert rec["wall_s"] == 6.0
    assert rec["op_s"] == pytest.approx(2.0)
    child = workloads.closed_loop(
        lambda: {"problems": [], "hash": "x", "chunk_s": 2 * nominal}, 0.0,
        clock=lambda: now[0], sampler=sampler)
    assert child[0]["chunk_s"] == 2 * nominal      # the child's own sample wins


def test_sampler_times_the_chunk_while_the_process_works():
    with speed.Sampler(interval=0.005) as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    taken = len(sampler.samples)
    time.sleep(0.05)
    assert taken >= 5 and len(sampler.samples) == taken   # stopped
    assert all(0.0 < t < 0.1 for t in sampler.samples)


def test_closed_loop_runs_at_least_once():
    records = workloads.closed_loop(lambda: {"problems": [], "hash": "x"}, 0.0)
    assert len(records) == 1 and records[0]["ok"]


def test_benchmark_json_is_the_generated_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.spec()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-two-species",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
