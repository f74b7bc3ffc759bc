"""The benchmark in ``perfbench/`` runs the package through names it imports
and patches; a rename in ``src`` that breaks it must fail here first."""

import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import fixture_caption_records
from longctx.longcap import write_caption_records

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _run(args, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=PERFBENCH, timeout=120, **kwargs)


def test_the_benchmark_imports_and_patches_what_it_needs():
    script = "import child, inputs; from spans import Tracer; child.install_spans(Tracer())"
    proc = _run(["-c", script])
    assert proc.returncode == 0, proc.stderr


def test_every_benchmark_check_passes_the_right_output_and_catches_its_fault():
    proc = _run([str(PERFBENCH / "selftest.py")])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "34 of 34 self-tests as expected"


def test_a_traced_benchmark_child_sees_the_longcap_pipeline(tmp_path):
    records = fixture_caption_records()
    write_caption_records(records, tmp_path / "records.jsonl")
    result = tmp_path / "result.json"
    proc = _run([str(PERFBENCH / "child.py"), str(result), "1", "--", "longcap",
                 "--records", str(tmp_path / "records.jsonl"), "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    assert out["exit"] == 0
    names = {span["name"] for span in out["spans"]}
    assert {"longcap.run_pipeline", "longcap.backend", "longcap.append_journal"} <= names
    assert out["augment_captions"] == [r.caption for r in records]
