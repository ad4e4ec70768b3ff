"""Which commands load scipy, each checked in a fresh interpreter.

scipy is imported only inside the functions that call it, so importing
epkit, `rpca.decompose`, `epkit rpca`, `epkit flow-group`, `epkit segment`,
`epkit fuse` without `--segments` and `epkit pipeline` load none of it: flow
grouping's corner filters are numpy, and segmentation's banded solve runs on
numpy's OpenBLAS (on scipy.linalg.lapack only where numpy does not export
the band routines, and then only flow-group is checked).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from epkit import cli, numkit, pipeline

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


def test_flow_group_segment_fuse_and_pipeline_load_no_scipy(tmp_path):
    sess = tmp_path / "sess"
    assert cli.main(["synth", "--generator", "driver_session", "--seed", "4",
                     "--params", json.dumps({"episode_schedule": [["safe_driving", 6]]}), "--out", str(sess)]) == 0
    # each frame's hand boxes, as flow-group reads them
    with open(sess / "detections.jsonl") as src, open(tmp_path / "boxes.jsonl", "w") as out:
        for line in src:
            rec = json.loads(line)
            out.write(json.dumps({"frame": rec["frame"], "boxes": [h["box"] for h in rec["hands"]]}) + "\n")
    config = str(sess / "session_config.json")
    detections = str(sess / "detections.jsonl")
    code = f"""
import json, sys
from epkit import cli

commands = {{
    "flow-group": ["flow-group", "--frames", {str(sess / "frames")!r}, "--boxes", "boxes.jsonl"],
    "segment": ["segment", "--detections", {detections!r}],
    "fuse": ["fuse", "--detections", {detections!r}],
    "pipeline": ["pipeline", "--session", {str(sess)!r}],
}}
loaded = {{}}
for name, argv in commands.items():
    assert cli.main(argv + ["--config", {config!r}, "--out", name]) == 0, name
    loaded[name] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded))
"""
    loaded = fresh(code, tmp_path)
    assert loaded.pop("flow-group") == []
    if numkit._BAND_LAPACK is not None:  # else segmentation's band routines come from scipy.linalg.lapack
        assert loaded == {"segment": [], "fuse": [], "pipeline": []}
    for name, output in (("flow-group", "flow_groups.json"), ("segment", "change_points.json"),
                         ("fuse", "episodes.json"), ("pipeline", "report.json")):
        assert (tmp_path / name / output).exists(), name
