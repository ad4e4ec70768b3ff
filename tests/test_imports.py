"""Which commands load scipy, each checked in a fresh interpreter.

scipy is imported only inside the functions that call it, so importing
epkit, `rpca.decompose` and `epkit rpca` load none of it. `run_pipeline`
imports `scipy.ndimage` before it forks the rpca worker, so a worker that
takes flow chunks inherits the module instead of importing it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from epkit import cli, pipeline

SRC = str(Path(pipeline.__file__).resolve().parents[1])


def fresh(code: str, cwd) -> list:
    """Run *code* in a new interpreter that imports epkit from this tree; its last stdout line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_rpca_loads_no_scipy(tmp_path):
    code = """
import json, sys
from epkit import cli, config, fileio, fusion, gflasso, numkit, optflow, pipeline, rpca, synth

bundle = synth.gen_lowrank_sparse(d=40, t=30, rank=2, sparse_fraction=0.05, magnitude=5.0, seed=1)
assert rpca.decompose(bundle.payload["x"]).converged
assert cli.main(["synth", "--generator", "lowrank_sparse", "--params", '{"d": 40, "t": 30, "rank": 2}',
                 "--out", "m"]) == 0
assert cli.main(["rpca", "--input", "m/x.mat", "--out", "o"]) == 0
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""
    assert fresh(code, tmp_path) == []
    assert (tmp_path / "o" / "low_rank.mat").exists()


def test_pipeline_loads_ndimage_before_it_forks(tmp_path):
    sess = tmp_path / "sess"
    assert cli.main(["synth", "--generator", "driver_session", "--seed", "4",
                     "--params", json.dumps({"episode_schedule": [["safe_driving", 6]]}), "--out", str(sess)]) == 0
    code = f"""
import json, sys
from epkit import cli, pipeline

before = "scipy.ndimage" in sys.modules
at_fork = []
real = pipeline.in_worker

def spy(*args):
    at_fork.append("scipy.ndimage" in sys.modules)
    return real(*args)

pipeline.in_worker = spy
assert cli.main(["pipeline", "--session", {str(sess)!r}, "--config", {str(sess / "session_config.json")!r},
                 "--out", "o"]) == 0
print(json.dumps([before, at_fork]))
"""
    assert fresh(code, tmp_path) == [False, [True]]
    assert (tmp_path / "o" / "report.json").exists()
