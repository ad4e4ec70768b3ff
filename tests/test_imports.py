"""Which commands load scipy, each checked in a fresh interpreter.

scipy is imported only inside the functions that call it, so importing
epkit, `rpca.decompose`, `epkit rpca` and `epkit flow-group` load none of it.
`epkit pipeline` loads `scipy.linalg` for segmentation's banded solve, and
neither `scipy.ndimage` nor `scipy.special`: flow grouping's corner filters
are numpy.
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


def test_flow_group_loads_no_scipy_and_pipeline_no_ndimage(tmp_path):
    sess = tmp_path / "sess"
    assert cli.main(["synth", "--generator", "driver_session", "--seed", "4",
                     "--params", json.dumps({"episode_schedule": [["safe_driving", 6]]}), "--out", str(sess)]) == 0
    # each frame's hand boxes, as flow-group reads them
    with open(sess / "detections.jsonl") as src, open(tmp_path / "boxes.jsonl", "w") as out:
        for line in src:
            rec = json.loads(line)
            out.write(json.dumps({"frame": rec["frame"], "boxes": [h["box"] for h in rec["hands"]]}) + "\n")
    config = str(sess / "session_config.json")
    code = f"""
import json, sys
from epkit import cli

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

assert cli.main(["flow-group", "--frames", {str(sess / "frames")!r}, "--boxes", "boxes.jsonl", "--config", {config!r},
                 "--out", "flow"]) == 0
after_flow = loaded()
assert cli.main(["pipeline", "--session", {str(sess)!r}, "--config", {config!r}, "--out", "o"]) == 0
print(json.dumps([after_flow, loaded()]))
"""
    after_flow, after_pipeline = fresh(code, tmp_path)
    assert after_flow == []
    assert "scipy.linalg" in after_pipeline
    assert not [name for name in after_pipeline if name.startswith(("scipy.ndimage", "scipy.special"))]
    assert (tmp_path / "flow" / "flow_groups.json").exists() and (tmp_path / "o" / "report.json").exists()
