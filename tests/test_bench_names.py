"""The traced benchmark run wraps package functions by module attribute name
(perfbench/spans.py).  A wrapped name the package no longer has is skipped
without an error, which would leave its per-layer metric at zero, so the set
of missing names is pinned here, and so are the argument positions that its
work counters read."""
import importlib
import importlib.util
import inspect
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_exist_in_package():
    missing = {f"{mod}.{attr}"
               for mod, attr, _name, _work in _spans_module().PACKAGE_WRAPS
               if not hasattr(importlib.import_module(f"thermocasimir.{mod}"),
                              attr)}
    # screening stopped importing vel_fourier when its kernel assembly was
    # vectorised; vel_fourier is only a test oracle since then.
    # classical_slab_solve is deleted: a classical plasma is a basis of point
    # charges solved by assemble_kernel_matrix, so screening.classical_s and
    # classical_calls read 0 and that work counts under the screening layers.
    # build_loop_basis draws each charge number's bridges with one call of
    # loops.sample_bridge_ensemble, looked up on loops, and has no
    # sample_bridge of its own: its draws count under loops.sample_s and
    # loops.paths
    assert missing == {"screening.vel_fourier", "screening.classical_slab_solve",
                       "screening.sample_bridge"}


def test_work_counters_read_the_pinned_positions():
    # the traced run's work counters read these arguments by position when
    # a caller passes them positionally, so their places are pinned here
    from thermocasimir import loops, screening
    pinned = {screening.assemble_kernel_matrix: {0: "basis"},
              screening.check_perfect_screening: {0: "basis", 2: "k_sequence"},
              loops.sample_bridge_ensemble: {3: "count"}}
    for fn, places in pinned.items():
        params = list(inspect.signature(fn).parameters)
        assert {i: params[i] for i in places} == places, fn.__name__
