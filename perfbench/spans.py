"""Span recorder for the traced run, and the per-layer metrics derived from it.

Spans are taken around calls into the package's public functions by replacing
the module attribute each caller looks up with a timing wrapper; nothing in the
package itself is edited.  Spans stay in memory and are written out by the
caller when the run ends.

Every span name belongs to exactly one ``*_s`` metric, so the layer self times
of one operation add up to its wall time.
"""
from __future__ import annotations

import functools
import time

# The operation's root span.  In-process operations are pipeline orchestration;
# a CLI operation's root is the child process as the parent saw it.
ROOT_RUN = "pipeline.run_pipeline"
ROOT_CLI = "cli.process"

ORACLES = ("potentials.coulomb_force_kernel_oracle",
           "potentials.v_transverse_partial_oracle",
           "potentials.wab_pair_finite_d",
           "potentials.wm_gradient_ab")

# metric -> span names whose self times it sums
TIME_METRICS = {
    "screening.assemble_s": ("screening.assemble_kernel_matrix",),
    "screening.solve_s": ("screening.check_perfect_screening",),
    "screening.source_s": ("screening.source_column", "potentials.vel_fourier"),
    "screening.basis_s": ("screening.build_loop_basis",),
    "screening.richardson_s": ("screening.richardson_extrapolate",),
    "screening.classical_s": ("screening.classical_slab_solve",),
    "loops.sample_s": ("loops.sample_bridge", "loops.sample_bridge_ensemble"),
    "potentials.magnetic_s": ("potentials.magnetic_capacitor_integrand",),
    "potentials.wm_pair_s": ("potentials.wm_pair_fourier",),
    "potentials.oracle_s": ORACLES,
    "force.assemble_s": ("force.assemble_force", "force.zeta3_quadrature"),
    "pipeline.self_s": (ROOT_RUN, "pipeline.verify_suite"),
    "cli.self_s": (ROOT_CLI, "cli.main"),
    "cli.import_s": ("cli.import",),
}

# metric -> span names whose calls it counts
CALL_METRICS = {
    "screening.assemble_calls": ("screening.assemble_kernel_matrix",),
    "potentials.wm_pair_calls": ("potentials.wm_pair_fourier",),
    "potentials.vel_fourier_calls": ("potentials.vel_fourier",),
    "screening.classical_calls": ("screening.classical_slab_solve",),
    "potentials.oracle_calls": ORACLES,
    "force.zeta3_calls": ("force.zeta3_quadrature",),
}

# metrics summed from the quantities the wrappers compute from arguments/results
WORK_METRICS = ("screening.kernel_entries", "screening.solves",
                "screening.solve_flops", "screening.basis_rows", "loops.paths")

UNITS = {name: "s" for name in TIME_METRICS}
UNITS.update({name: "count" for name in CALL_METRICS})
UNITS.update({"screening.kernel_entries": "count", "screening.solves": "count",
              "screening.solve_flops": "flop", "screening.basis_rows": "count",
              "loops.paths": "count", "trace.overhead_frac": "ratio"})


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _kernel_work(args, kwargs, _result):
    n = _arg(args, kwargs, 0, "basis").size
    return {"screening.kernel_entries": n * n}


def _sweep_work(args, kwargs, _result):
    # One dense complex LU per wavenumber (8/3 n^3 real flops, computed).
    n = _arg(args, kwargs, 0, "basis").size
    n_k = len(_arg(args, kwargs, 2, "k_sequence"))
    return {"screening.solves": n_k, "screening.solve_flops": n_k * 8 * n**3 // 3}


def _basis_work(_args, _kwargs, result):
    return {"screening.basis_rows": result.size}


def _one_path(_args, _kwargs, _result):
    return {"loops.paths": 1}


def _ensemble_paths(args, kwargs, _result):
    return {"loops.paths": int(_arg(args, kwargs, 3, "count"))}


# (module, attribute, span name, work counter).  The names bound at import time
# are wrapped where the caller looks them up: ``screening`` imports
# ``sample_bridge`` and ``vel_fourier`` by name, and ``cli`` imports
# ``verify_suite`` by name.  ``check_perfect_screening`` binds its solver as a
# default argument, so the dense solve is not wrapped: it is the k-sweep's self
# time.
PACKAGE_WRAPS = (
    ("loops", "sample_bridge", "loops.sample_bridge", _one_path),
    ("loops", "sample_bridge_ensemble", "loops.sample_bridge_ensemble",
     _ensemble_paths),
    ("screening", "sample_bridge", "loops.sample_bridge", _one_path),
    ("screening", "vel_fourier", "potentials.vel_fourier", None),
    ("screening", "build_loop_basis", "screening.build_loop_basis", _basis_work),
    ("screening", "assemble_kernel_matrix", "screening.assemble_kernel_matrix",
     _kernel_work),
    ("screening", "source_column", "screening.source_column", None),
    ("screening", "check_perfect_screening", "screening.check_perfect_screening",
     _sweep_work),
    ("screening", "richardson_extrapolate", "screening.richardson_extrapolate",
     None),
    ("screening", "classical_slab_solve", "screening.classical_slab_solve", None),
    ("potentials", "magnetic_capacitor_integrand",
     "potentials.magnetic_capacitor_integrand", None),
    ("potentials", "wm_pair_fourier", "potentials.wm_pair_fourier", None),
    ("potentials", "coulomb_force_kernel_oracle",
     "potentials.coulomb_force_kernel_oracle", None),
    ("potentials", "v_transverse_partial_oracle",
     "potentials.v_transverse_partial_oracle", None),
    ("potentials", "wab_pair_finite_d", "potentials.wab_pair_finite_d", None),
    ("potentials", "wm_gradient_ab", "potentials.wm_gradient_ab", None),
    ("force", "assemble_force", "force.assemble_force", None),
    ("force", "zeta3_quadrature", "force.zeta3_quadrature", None),
    ("cli", "verify_suite", "pipeline.verify_suite", None),
)


class Recorder:
    """In-memory span list.  A span is a dict with ``id``, ``name``,
    ``parent`` (span id or None), ``op`` (operation id), ``start``, ``end``
    (``time.perf_counter`` seconds) and ``work`` (counter name -> amount)."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []
        self._patched = []

    def begin_op(self):
        """Start a new operation: later spans carry its id."""
        self.op = 0 if self.op is None else self.op + 1

    def call(self, name, fn, args=(), kwargs=None, work=None):
        kwargs = kwargs or {}
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "op": self.op, "start": time.perf_counter(), "end": None,
                "work": {}}
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            span["work"] = work(args, kwargs, result)
        return result

    def wrap(self, owner, attr, name, work=None):
        """Replace ``owner.attr`` by a wrapper recording one span per call.
        An attribute the package no longer has is noted and skipped."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def install(self, modules):
        """Wrap every entry of PACKAGE_WRAPS whose module is in ``modules``
        (short module name -> module object)."""
        for mod, attr, name, work in PACKAGE_WRAPS:
            if mod in modules:
                self.wrap(modules[mod], attr, name, work)

    def restore(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def self_times(spans):
    """Span id -> duration minus the part of it covered by its direct children."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans):
    """Per-layer metrics of one operation's spans (overhead not included)."""
    own = self_times(spans)
    values = {}
    for metric, names in TIME_METRICS.items():
        values[metric] = sum(own[s["id"]] for s in spans if s["name"] in names)
    for metric, names in CALL_METRICS.items():
        values[metric] = sum(1 for s in spans if s["name"] in names)
    # A span's work is not counted again when its parent counted the same
    # quantity (sample_bridge draws through sample_bridge_ensemble).
    by_id = {s["id"]: s for s in spans}
    for metric in WORK_METRICS:
        values[metric] = sum(
            s["work"].get(metric, 0) for s in spans
            if metric not in by_id.get(s["parent"], {"work": {}})["work"])
    return values
