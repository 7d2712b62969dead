"""Print a short digest of each report a refactor must leave unchanged.

    python tools/report_digests.py

Each line is a name and the first 12 hex digits of
``sha256(json.dumps(report, sort_keys=True))``, computed at one BLAS thread
with the configurations of ``tests/test_acceptance.py``:

- ``TWO_SPECIES``: ``run_pipeline`` on the two-species acceptance plasma;
- ``THREE_SPECIES``: ``run_pipeline`` on the three-species acceptance plasma;
- ``fine-grid``: ``THREE_SPECIES`` at nx 96 with 2 paths per set, without
  the magnetic probe;
- ``verify_suite(TWO_SPECIES)``: the verdict table of ``verify``.

Equal digests before and after a change mean that no reported number moved.
Another numpy or BLAS build may round differently, so the digests are
compared between two checkouts on one machine.  The package is imported
from the src/ directory beside this script; the configurations are read from
the tests, which import pytest (``pip install -e .[test]``).
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:12]


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_acceptance import THREE_SPECIES, TWO_SPECIES
    from thermocasimir.config import load_config
    from thermocasimir.pipeline import run_pipeline, verify_suite

    fine = {**THREE_SPECIES, "numerics": {"nx": 96, "n_paths_kernel": 2}}
    reports = {
        "TWO_SPECIES": lambda: run_pipeline(load_config(TWO_SPECIES))["report"],
        "THREE_SPECIES": lambda: run_pipeline(load_config(THREE_SPECIES))["report"],
        "fine-grid": lambda: run_pipeline(load_config(fine),
                                          magnetic_check=False)["report"],
        "verify_suite(TWO_SPECIES)": lambda: verify_suite(load_config(TWO_SPECIES)),
    }
    for name, report in reports.items():
        print(f"{name} {digest(report())}")


if __name__ == "__main__":
    main()
