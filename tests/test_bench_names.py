"""The traced benchmark run wraps package functions by module attribute name
(perfbench/spans.py).  A wrapped name the package no longer has is skipped
without an error, which would leave its per-layer metric at zero, so the set
of missing names is pinned here."""
import importlib
import importlib.util
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
    # vectorised; vel_fourier is only a test oracle since then
    assert missing == {"screening.vel_fourier"}
