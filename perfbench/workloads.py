"""The benchmark's workloads, their operations and the per-operation
correctness gate.

One operation is one complete answer.  Each workload is a closed loop with a
single client: the next operation starts when the previous one has ended.
The workload seed goes only into the configuration's ``seed``.
"""
from __future__ import annotations

import copy
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

import spans
import speed

DEFAULT_SEED = 2024
FORCE_RATIO_TOL = 0.02          # acceptance criterion 1: |f_assembled/f_leading - 1|
CHILD_TIMEOUT_S = 150.0

_LAMBDA_SCREEN = 0.9534625892455922
_D_VALUES = [100.0 * _LAMBDA_SCREEN, 200.0 * _LAMBDA_SCREEN,
             400.0 * _LAMBDA_SCREEN]
_DENSITY_2 = 0.039788735772973836
_DENSITY_3 = 0.013262911924324612

# The acceptance configurations of tests/test_acceptance.py, frozen here so
# that the workloads cannot drift when the tests change.
TWO_SPECIES = {
    "units": "reduced",
    "thermo": {"beta": 1.0, "hbar": 0.02, "c": 100.0},
    "slabs": {
        "a": 6.0, "b": 6.0, "neutral": True,
        "species": [
            {"name": "plus", "charge": 1.0, "mass": 1.0, "density": _DENSITY_2},
            {"name": "minus", "charge": -1.0, "mass": 1.0, "density": _DENSITY_2},
        ],
    },
    "sweep": {"d_values": _D_VALUES},
    "seed": DEFAULT_SEED,
    "numerics": {"nx": 24, "n_paths_kernel": 6},
}

THREE_SPECIES = {
    "units": "reduced",
    "thermo": {"beta": 1.0, "hbar": 0.02, "c": 100.0},
    "slabs": {
        "a": 6.0, "b": 6.0, "neutral": True,
        "species": [
            {"name": "double", "charge": 2.0, "mass": 3.0, "density": _DENSITY_3},
            {"name": "light", "charge": -1.0, "mass": 0.8, "density": _DENSITY_3},
            {"name": "heavy", "charge": -1.0, "mass": 2.5, "density": _DENSITY_3},
        ],
    },
    "sweep": {"d_values": _D_VALUES},
    "seed": DEFAULT_SEED,
    "numerics": {"nx": 96, "n_paths_kernel": 2},
}

# Why each workload is in the benchmark; see README.md for the layer shares.
WORKLOADS = {
    "run-two-species": {
        "kind": "run", "config": TWO_SPECIES, "magnetic_check": True,
        "why": "ROADMAP's headline library call with the magnetic probe on; "
               "same-cell near-pair assembly and the probe both show"},
    "fine-grid-three-species": {
        "kind": "run", "config": THREE_SPECIES, "magnetic_check": False,
        "why": "convergence-study call at nx=96: many cells, cell-crossing near "
               "pairs, largest LU, no magnetic probe"},
    "cli-verify-two-species": {
        "kind": "cli", "config": TWO_SPECIES,
        "why": "CLI traffic: each operation is a fresh process paying "
               "interpreter start, imports, Gauss nodes and the verify suite"},
}


def workload_config(name, seed):
    cfg = copy.deepcopy(WORKLOADS[name]["config"])
    cfg["seed"] = int(seed)
    return cfg


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------------

def gate_run_report(report, residual_tolerance):
    """Problems with one run_pipeline report (an empty list passes)."""
    problems = []
    if report.get("certified_all") is not True:
        problems.append("certified_all is not true")
    for row in report["results"]:
        dev = abs(row["f_assembled"] / row["f_leading"] - 1.0)
        if not dev < FORCE_RATIO_TOL:
            problems.append(f"|f_assembled/f_leading - 1| = {dev:.3e} "
                            f"at d = {row['d']:.6g}")
    for side in ("residual_a", "residual_b"):
        resid = report["brackets"][side]
        if not resid < residual_tolerance:
            problems.append(f"{side} = {resid:.3e} >= {residual_tolerance:.1e}")
    return problems


def gate_verify(exit_code, table):
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if not (isinstance(table, dict) and table.get("all_passed") is True):
        problems.append("verify table does not report all_passed")
    return problems


def closed_loop(op, seconds, reference=None, clock=time.perf_counter,
                sampler=None):
    """Run ``op`` back to back for about ``seconds`` (at least once).

    A new operation starts only while it is expected to end less than half an
    operation past ``seconds`` (by the median so far), so a run of long
    operations does not overrun by a whole one.  The heap is collected before
    each operation, outside its time.

    ``op()`` returns a dict with ``problems`` (list) and ``hash``; a raised
    exception is a failed operation.  An operation whose hash differs from
    ``reference``, or else from the first successful one of the loop, fails
    too: one seed must give one answer.

    The host's speed during an operation is the mean chunk time of
    speed.py: ``chunk_s`` in the record ``op()`` returns (a child process
    sampled itself), or else that of ``sampler`` (this process is sampled).
    Each record gains ``wall_s``, ``op_s`` (the wall time normalised to the
    fixed-speed host) and ``ok``.
    """
    records = []
    start = clock()
    while not records or (clock() - start + 0.5 * statistics.median(
            r["wall_s"] for r in records) < seconds):
        gc.collect()
        if sampler is not None:
            sampler.reset()
        t0 = clock()
        try:
            rec = op()
        except Exception:  # an operation that raises is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            rec = {"problems": ["raised: " + traceback.format_exc(limit=1)
                                .strip().splitlines()[-1]], "hash": None}
        rec["wall_s"] = clock() - t0
        if sampler is not None:
            rec.setdefault("chunk_s", speed.chunk_time(sampler.samples))
        rec["op_s"] = speed.normalise(rec["wall_s"], rec.get("chunk_s"))
        records.append(rec)
    if reference is None:
        reference = next((r["hash"] for r in records if not r["problems"]), None)
    for rec in records:
        if not rec["problems"] and rec["hash"] != reference:
            rec["problems"].append("report hash differs from the first "
                                   "operation of this seed")
        rec["ok"] = not rec["problems"]
    return records


# ----------------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------------

def run_op(name, seed, recorder=None):
    """In-process operation: run_pipeline(load_config(config))."""
    from thermocasimir.config import load_config
    from thermocasimir.pipeline import run_pipeline

    cfg = workload_config(name, seed)
    magnetic = WORKLOADS[name]["magnetic_check"]

    def answer():
        config = load_config(copy.deepcopy(cfg))
        out = run_pipeline(config, magnetic_check=magnetic)
        return config, out["report"]

    def op():
        if recorder is None:
            config, report = answer()
        else:
            recorder.begin_op()
            config, report = recorder.call(spans.ROOT_RUN, answer)
        return {"problems": gate_run_report(
                    report, config.numerics["residual_tolerance"]),
                "hash": digest(report)}

    return op


def run_child(argv, env, stderr_path, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion; returns (exit code, peak RSS in MiB).
    ``os.wait4`` gives this child's own resource usage, and polling every
    2 ms keeps the measured wall time fine-grained."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    deadline = time.perf_counter() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage.ru_maxrss / 1024.0
            if time.perf_counter() > deadline:
                raise TimeoutError(f"child exceeded {timeout:.0f} s")
            time.sleep(0.002)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


def _chunk_time(speed_path):
    """Mean chunk time a child sampled itself, None if it wrote none."""
    if not os.path.exists(speed_path):
        return None
    with open(speed_path) as fh:
        return speed.chunk_time(json.load(fh))


def cli_op(name, seed, workdir, env, recorder=None):
    """Fresh-process operation: thermocasimir verify <config> --json-out <file>.

    The child is perfbench/child.py, which runs the CLI as ``python -m
    thermocasimir.cli`` does under the host-speed sampler.  With a recorder
    it also records its spans and writes them to a file the parent merges
    under the operation.
    """
    cfg_path = os.path.join(workdir, f"{name}-{seed}.json")
    with open(cfg_path, "w") as fh:
        json.dump(workload_config(name, seed), fh)
    out_path = os.path.join(workdir, "verify.json")
    trace_path = os.path.join(workdir, "child-spans.json")
    speed_path = os.path.join(workdir, "child-speed.json")
    err_path = os.path.join(workdir, "child-stderr.txt")
    argv = [sys.executable, CHILD, speed_path]
    if recorder is not None:
        argv += ["--spans", trace_path]
    argv += ["cli", "verify", cfg_path, "--json-out", out_path]

    def child():
        for path in (out_path, trace_path, speed_path):
            if os.path.exists(path):
                os.remove(path)
        return run_child(argv, env, err_path)

    def op():
        if recorder is None:
            code, rss = child()
        else:
            recorder.begin_op()
            root = len(recorder.spans)
            code, rss = recorder.call(spans.ROOT_CLI, child)
            _merge_child_spans(recorder, recorder.spans[root], trace_path)
        table = None
        if os.path.exists(out_path):
            with open(out_path) as fh:
                table = json.load(fh)
        problems = gate_verify(code, table)
        if problems:
            with open(err_path, errors="replace") as fh:
                tail = fh.read()[-2000:]
            if tail:
                sys.stderr.write(tail)
        return {"problems": problems, "hash": digest(table), "rss_mib": rss,
                "chunk_s": _chunk_time(speed_path)}

    return op


def make_op(name, seed, workdir, env, recorder=None):
    if WORKLOADS[name]["kind"] == "run":
        return run_op(name, seed, recorder)
    return cli_op(name, seed, workdir, env, recorder)


def _merge_child_spans(recorder, root, trace_path):
    """Append the child's spans under the operation's root span.  Both
    processes read the same monotonic clock, so the times line up."""
    if not os.path.exists(trace_path):
        return
    with open(trace_path) as fh:
        child_spans = json.load(fh)
    offset = len(recorder.spans)
    for s in child_spans:
        s["id"] += offset
        s["parent"] = root["id"] if s["parent"] is None else s["parent"] + offset
        s["op"] = root["op"]
        recorder.spans.append(s)


def measure_setup(name, seed, workdir, env, repeats):
    """Set-up times of fresh interpreters that import thermocasimir and
    load_config the workload's configuration, each sampling the host's
    speed (child.py ``setup``); one unmeasured warm-up runs first, so
    byte-code compilation is not counted.  Returns a list of records with
    ``wall_s``, ``chunk_s`` and ``setup_s`` (the normalised time)."""
    cfg_path = os.path.join(workdir, f"setup-{name}-{seed}.json")
    with open(cfg_path, "w") as fh:
        json.dump(workload_config(name, seed), fh)
    speed_path = os.path.join(workdir, "setup-speed.json")
    err_path = os.path.join(workdir, "setup-stderr.txt")
    times = []
    for i in range(repeats + 1):
        if os.path.exists(speed_path):
            os.remove(speed_path)
        t0 = time.perf_counter()
        code, _ = run_child([sys.executable, CHILD, speed_path, "setup", cfg_path],
                            env, err_path)
        wall = time.perf_counter() - t0
        if code != 0:
            with open(err_path, errors="replace") as fh:
                raise RuntimeError(f"set-up child exited with {code}:\n"
                                   + fh.read()[-2000:])
        chunk = _chunk_time(speed_path)
        if i:
            times.append({"wall_s": wall, "chunk_s": chunk,
                          "setup_s": speed.normalise(wall, chunk)})
    return times
