"""thermocasimir benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json

Run from the root of a source checkout; the package is imported from its
``src/``.  With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see README.md).  A record with provenance, every operation and,
when traced, every span is written under ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

RUN_SECONDS = 25
SETUP_REPEATS = 5
# One BLAS thread: the dense LU is a few per cent of an operation, and a
# second busy thread on a small shared host measures the scheduler.
BLAS_THREADS = 1
END_TO_END = (
    {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
)


def spec():
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]}
                      for name, w in workloads.WORKLOADS.items()],
        "end_to_end": list(END_TO_END),
        "per_layer": [{"name": name, "unit": unit, "better": "lower"}
                      for name, unit in spans.UNITS.items()],
    }


def provenance(seed, threads):
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas_name,
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": sha, "seed": seed, "machine": platform.machine()}


def _median(values):
    return statistics.median(values) if values else None


def run_workload(name, seed, seconds, trace, workdir, child_env):
    """One benchmark run of one workload; returns the result record.  Every
    time is normalised to a fixed-speed host by speed.py: in-process
    operations are sampled here, child processes sample themselves."""
    kind = workloads.WORKLOADS[name]["kind"]
    sampler = speed.Sampler() if kind == "run" else None

    def make_op(recorder=None):
        return workloads.make_op(name, seed, workdir, child_env, recorder)

    def loop(op, seconds, reference=None):
        if sampler is None:
            return workloads.closed_loop(op, seconds, reference)
        with sampler:
            return workloads.closed_loop(op, seconds, reference, sampler=sampler)

    result = {"workload": name, "seed": seed, "trace": trace,
              "seconds": seconds, "closed_loop_clients": 1,
              "nominal_chunk_s": speed.NOMINAL_CHUNK_S}
    if not trace:
        setup = workloads.measure_setup(name, seed, workdir, child_env,
                                        SETUP_REPEATS)
        records = loop(make_op(), seconds)
        ok = [r for r in records if r["ok"]] or records
        rss = ([r["rss_mib"] for r in ok] if kind == "cli"
               else [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
        metrics = {"op_s": _median([r["op_s"] for r in ok]),
                   "setup_s": _median([t["setup_s"] for t in setup]),
                   "peak_rss_mib": _median(rss)}
        result.update(setup_s_samples=setup, records=records,
                      op_s_samples=len(ok),
                      op_wall_s=_median([r["wall_s"] for r in ok]),
                      setup_wall_s=_median([t["wall_s"] for t in setup]))
    else:
        untraced = loop(make_op(), seconds / 2.0)
        recorder = spans.Recorder()
        if kind == "run":
            recorder.install({m: importlib.import_module(f"thermocasimir.{m}")
                              for m in ("loops", "potentials", "screening",
                                        "force")})
        # Tracing must not change the answer: traced operations are held to
        # the untraced report hash.
        reference = next((r["hash"] for r in untraced if r["ok"]), None)
        try:
            traced = loop(make_op(recorder), seconds / 2.0, reference)
        finally:
            recorder.restore()
        records = untraced + traced
        per_op = [spans.layer_metrics([s for s in recorder.spans
                                       if s["op"] == op_id])
                  for op_id, rec in enumerate(traced) if rec["ok"]]
        metrics = {m: _median([v[m] for v in per_op]) for m in spans.UNITS
                   if m != "trace.overhead_frac"}
        plain = [r["op_s"] for r in untraced if r["ok"]]
        with_spans = [r["op_s"] for r in traced if r["ok"]]
        metrics["trace.overhead_frac"] = (
            _median(with_spans) / _median(plain) - 1.0
            if plain and with_spans else None)
        result.update(records=records, traced_ops=len(traced),
                      layer_metrics_per_op=per_op, spans=recorder.spans,
                      unwrapped=recorder.missing)
    result["attempted"] = len(records)
    result["failed"] = sum(1 for r in records if not r["ok"])
    result["metrics"] = metrics
    return result


def _units():
    units = {m["name"]: m["unit"] for m in END_TO_END}
    units.update(spans.UNITS)
    return units


def print_result(result):
    units = _units()
    failed, attempted = result["failed"], result["attempted"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  closed loop, 1 client, "
          f"{result['seconds']:g} s")
    metrics = result["metrics"]
    if result["trace"]:
        order = sorted(metrics, key=lambda m: (units[m] != "s", -(metrics[m] or 0)))
    else:
        order = list(metrics)
    for m in order:
        note = ""
        if m == "op_s":
            note = (f"  (median of {result['op_s_samples']} operations, "
                    f"host-speed normalised; wall {result['op_wall_s']:.4g} s)")
        elif m == "setup_s":
            note = (f"  (median of {len(result['setup_s_samples'])} fresh "
                    f"interpreters, host-speed normalised; wall "
                    f"{result['setup_wall_s']:.4g} s)")
        value = "n/a" if metrics[m] is None else f"{metrics[m]:.6g}"
        print(f"  {m:<30} {value:>14} {units[m]}{note}")
    print(f"  {'failed_frac':<30} {failed / attempted:>14.6g} 1  "
          f"({failed} of {attempted} operations)")
    for rec in result["records"]:
        if not rec["ok"]:
            print(f"  FAILED: {'; '.join(rec['problems'])}")


def write_record(result, prov):
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{result['workload']}-seed"
                        f"{result['seed']}-trace{result['trace']}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": prov, **result}, fh, indent=1)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the checkout root and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not all(n in workloads.WORKLOADS for n in names):
        ap.error(f"--workload must be 'all' or one of {list(workloads.WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "thermocasimir", "__init__.py")):
        print(f"no thermocasimir sources under {SRC}: run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        ap.error("--seed must be nonnegative")

    # Before numpy is imported, here and in every child.
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, SRC)
    import thermocasimir
    if os.path.dirname(os.path.dirname(thermocasimir.__file__)) != SRC:
        print(f"thermocasimir imported from {thermocasimir.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        return 2

    prov = provenance(seed, int(threads))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK, prefix="run-")
    try:
        results = []
        for name in names:
            result = run_workload(name, seed, args.seconds, args.trace, workdir,
                                  dict(os.environ))
            write_record(result, prov)
            print_result(result)
            results.append(result)
            if args.workload == "all":
                # The gate must also hold on a seed the figures were not taken on.
                op = workloads.make_op(name, seed + 1, workdir, dict(os.environ))
                second = workloads.closed_loop(op, 0.0)
                bad = [r for r in second if not r["ok"]]
                print(f"  second seed {seed + 1}: {len(bad)} of {len(second)} "
                      "operations failed the gate")
                results.append({"seed": seed + 1, "attempted": len(second),
                                "failed": len(bad)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("provenance: " + json.dumps(prov))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    units = _units()
    if args.workload == "all":
        metrics = {f"{r['workload']}.{m}": {"value": v, "unit": units[m]}
                   for r in results if r["seed"] == seed
                   for m, v in r["metrics"].items()}
    else:
        metrics = {m: {"value": v, "unit": units[m]}
                   for m, v in results[0]["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
