"""The benchmark's setup_s metric times a fresh process that imports the
package and calls load_config on a config file path (perfbench/child.py,
``setup``).  These tests keep that path working and equal to the in-process
dict path the workloads run."""
import copy
import json
import os
import subprocess
import sys

import thermocasimir
from thermocasimir.config import load_config

from test_bench_gate import PERFBENCH, SEED, workloads  # noqa: F401  (fixture)


def test_setup_path_matches_the_dict_path(workloads, tmp_path):
    cfg = workloads.workload_config("run-two-species", SEED)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    from_path, from_dict = load_config(str(path)), load_config(copy.deepcopy(cfg))
    assert from_path.config_hash() == from_dict.config_hash()
    assert from_path.profile == from_dict.profile

    src_dir = os.path.dirname(os.path.dirname(thermocasimir.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"),
                           str(tmp_path / "speed.json"), "setup", str(path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert isinstance(json.loads((tmp_path / "speed.json").read_text()), list)
