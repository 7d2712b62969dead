"""Print the fine-grid table: the benchmark's fine-grid workload call at larger nx.

    python tools/fine_grid_table.py [nx ...]        # default: 96 384 768 1536

Each row is the ``THREE_SPECIES`` configuration of ``perfbench/workloads.py``
(2 paths per set) at one nx, run in a fresh Python process with one BLAS
thread:

- ``band`` and ``straddling``: the pair plan of slab a's basis;
- ``searches``: the run-end searches of one operator's straddling sums
  (rows of ``_nodes_before``, counted on the k^0 operator's; the k > 0
  operators search the same run ends);
- ``plan ms``: the first build of that plan (``LoopBasis.plan``);
- ``plan MiB``: the plan's traced transient (tracemalloc peak over its start,
  on a second basis of the same draws, after everything else is measured);
- ``run s``: ``run_pipeline(config, magnetic_check=False)`` wall time;
- ``RSS MiB``: the process's peak resident set after that run.

The package is imported from the src/ directory beside this script.
"""
import copy
import json
import os
import pathlib
import resource
import subprocess
import sys
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
COLUMNS = ("nx", "band", "straddling", "searches", "plan ms", "plan MiB", "run s",
           "RSS MiB")


def row(nx: int) -> dict:
    """The table's row at nx, measured in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from thermocasimir import screening as scr
    from thermocasimir.config import load_config
    from thermocasimir.pipeline import run_pipeline
    from workloads import THREE_SPECIES

    cfg = copy.deepcopy(THREE_SPECIES)
    cfg["numerics"].update(nx=nx, n_paths_kernel=2)
    config = load_config(cfg)

    def basis():
        return scr.build_loop_basis(config.profile, config.a, nx, 2,
                                    config.numerics["n_steps_kernel"], config.seed)

    first = basis()
    start = time.perf_counter()
    plan = first.plan
    plan_s = time.perf_counter() - start
    start = time.perf_counter()
    run_pipeline(config, magnetic_check=False)
    run_s = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    searches, nodes_before = [], scr._nodes_before

    def counting(nodes, q, strict):
        searches.append(q.shape[0])
        return nodes_before(nodes, q, strict)

    scr._nodes_before = counting
    scr._straddling_k0(plan, first)
    scr._nodes_before = nodes_before
    second = basis()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    second.plan
    transient = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    tracemalloc.stop()
    return {"nx": nx, "band": plan.band, "straddling": int(plan.straddling.size),
            "searches": sum(searches),
            "plan ms": round(1e3 * plan_s, 1), "plan MiB": round(transient, 1),
            "run s": round(run_s, 3), "RSS MiB": round(rss, 1)}


def main(argv) -> None:
    if argv[:1] == ["--row"]:
        print(json.dumps(row(int(argv[1]))))
        return
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    print("| " + " | ".join(COLUMNS) + " |")
    print("|" + " --- |" * len(COLUMNS))
    for nx in [int(a) for a in argv] or [96, 384, 768, 1536]:
        out = subprocess.run([sys.executable, __file__, "--row", str(nx)], env=env,
                             capture_output=True, text=True, check=True).stdout
        values = json.loads(out.splitlines()[-1])
        print("| " + " | ".join(f"{values[c]:,}" if c in ("straddling", "searches")
                                 else str(values[c]) for c in COLUMNS) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
