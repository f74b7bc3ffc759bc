#!/usr/bin/env python3
"""Compare two revisions on one benchmark workload and write BENCH_<label>.json.

Usage:
    python3 scripts/bench.py --label fold-kv-ablate --workload ablate --seeds 601-610 --traced 2
    python3 scripts/bench.py --label aa-ablate --base HEAD --change HEAD \\
        --workload ablate --seeds 501-510 --traced 0

Each side is copied into its own fresh directory: ``--base`` and a named
``--change`` with ``git archive`` (plain git, no network; nothing is added
to the repository's worktree list), the default ``--change`` as the working
tree's tracked and untracked, not ignored, files.  For every seed the two
sides run ``perfbench/run.py --workload W --seed S --trace 0`` one after the
other, the base first on even pairs and the change first on odd ones.
``--traced`` more pairs then run with ``--trace 1`` for the per-layer
metrics.  The file holds every run's metrics and digest, each side's median
and quartiles, the pairs won, the claim rule's verdict for every end-to-end
metric, and the machine the runs shared.  For ``ablate``, whose training runs
in worker processes the tracer cannot see, it also holds each side's
per-context ``train_s`` and ``step_ms_p50`` and its workers' peak RSS, read
from the ``timings.csv`` that every untraced round leaves in its tree.  The
peak is taken once per round, as the largest ``worker_peak_rss_mb`` of the
round's rows: a row holds the peak of whichever worker ran its context, so
per context it would follow the order the workers were handed their jobs.

The claim rule: the change wins at least nine tenths of the pairs (ties
count for neither side), and the medians differ, in the better direction,
by more than the base's interquartile range.

The no-regression verdict, for every end-to-end metric with its ``bound``
from BENCHMARK.json: ``worse`` when the change's median is worse than the
base's by more than the bound (as a share of the base's median);
otherwise ``unresolved`` when the base's IQR exceeds the bound (again as a
share of its median) and not every change run beats every base run;
otherwise ``within_bound``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900
DIGEST_RE = re.compile(r"attempted (\d+)\s+failed (\d+)\s+correct (\w+)\s+digest (\S+)")
TIMINGS_COLUMNS = ("train_s", "step_ms_p50")


def parse_seeds(text: str) -> list[int]:
    """``601-610`` or ``601,605,609`` (or a mix)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_revision(rev: str, dest: Path) -> str:
    """``rev``'s files into ``dest``; returns the commit id."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def export_working_tree(dest: Path) -> str:
    """The working tree's tracked and untracked (not ignored) files."""
    files = git("ls-files", "--cached", "--others", "--exclude-standard", "-z").split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    dirty = bool(git("status", "--porcelain"))
    return f"{git('rev-parse', 'HEAD')}{' + working-tree changes' if dirty else ''}"


def run_once(tree: Path, workload: str, seed: int, trace: bool) -> dict:
    """One ``perfbench/run.py`` run: its metrics, counts and digest."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace))]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": f"timed out after {RUN_TIMEOUT_S} s"}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    counts = DIGEST_RE.search(proc.stdout)
    run = {
        "seed": seed, "wall_s": round(wall, 3), "correct": summary["correct"],
        "attempted": summary["attempted"], "failed": summary["failed"],
        "digest": counts.group(4) if counts else None,
        "metrics": {m: v["value"] for m, v in summary["metrics"].items()},
    }
    if workload == "ablate" and not trace:
        run.update(read_timings(tree / ".perfbench_out" / f"ablate-seed{seed}-trace0"))
    return run


def read_timings(run_dir: Path) -> dict:
    """From ``round*/ablate/timings.csv`` under ``run_dir``, the medians over
    an ``ablate`` run's rounds of: per context, each of ``TIMINGS_COLUMNS``
    (as ``contexts``); and of each round's largest ``worker_peak_rss_mb`` (as
    ``worker_peak_rss_mb``).  Empty when no round left the file."""
    values, peaks = {}, []
    for path in sorted(run_dir.glob("round*/ablate/timings.csv")):
        with path.open(newline="") as f:
            rows = list(csv.DictReader(f))
        for row in rows:
            for column in TIMINGS_COLUMNS:
                values.setdefault(row["context"], {}).setdefault(column, []).append(
                    float(row[column]))
        peaks.append(max(float(row["worker_peak_rss_mb"]) for row in rows))
    if not peaks:
        return {}
    return {"contexts": {context: {column: statistics.median(v)
                                   for column, v in columns.items()}
                         for context, columns in values.items()},
            "worker_peak_rss_mb": statistics.median(peaks)}


def run_pairs(trees: dict, workload: str, seeds: list[int], trace: bool) -> list[dict]:
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], workload, seed, trace)
            print(f"  {'traced ' if trace else ''}pair {i} seed {seed} {side}: "
                  f"{pair[side].get('metrics', pair[side].get('error'))}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], metric: str, better: str,
              bound: float | None = None) -> dict:
    """Medians, quartiles, wins and the claim verdict; with a bound, the
    no-regression verdict too."""
    ok = [p for p in pairs if "metrics" in p["base"] and "metrics" in p["change"]
          and metric in p["base"]["metrics"] and metric in p["change"]["metrics"]]
    out = {}
    for side in ("base", "change"):
        values = [p[side]["metrics"][metric] for p in ok]
        if values:
            q1, q2, q3 = quartiles(values)
            out[side] = {"median": q2, "q1": q1, "q3": q3}
    if not ok:
        return out
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (p["change"]["metrics"][metric] - p["base"]["metrics"][metric]) > 0
               for p in ok)
    gap = sign * (out["change"]["median"] - out["base"]["median"])
    iqr = out["base"]["q3"] - out["base"]["q1"]
    out.update({
        "better": better, "pairs": len(pairs), "wins": wins,
        "change_vs_base": out["change"]["median"] / out["base"]["median"] - 1.0
        if out["base"]["median"] else None,
        "median_gap_in_better_direction": gap, "base_iqr": iqr,
        "claim_rule_met": wins >= 0.9 * len(pairs) and gap > iqr,
    })
    if bound is not None:
        # signed so that larger is better; a failed run beats nothing
        signed = {side: [sign * p[side]["metrics"][metric] for p in ok]
                  for side in ("base", "change")}
        every_run_better = len(ok) == len(pairs) and min(signed["change"]) > max(signed["base"])
        scale = abs(out["base"]["median"])
        out["bound"] = bound
        out["verdict"] = ("worse" if -gap > bound * scale else
                          "unresolved" if iqr > bound * scale and not every_run_better else
                          "within_bound")
    return out


def summarize_layer(pairs: list[dict], metric: str) -> dict:
    """Each side's median and quartiles of a traced per-layer metric.

    A run that reads 0 where the other side of its pair measured the layer
    did not see it (the layer ran in a process the tracer does not reach),
    so it is left out rather than counted as 0; a side left with no run is
    ``"not_observed"``."""
    out = {}
    for side, other in (("base", "change"), ("change", "base")):
        values = [p[side]["metrics"].get(metric, 0.0) for p in pairs if "metrics" in p[side]
                  and (p[side]["metrics"].get(metric)
                       or not p[other].get("metrics", {}).get(metric))]
        if values:
            q1, q2, q3 = quartiles(values)
            out[side] = {"median": q2, "q1": q1, "q3": q3}
        else:
            out[side] = "not_observed"
    return out


def summarize_contexts(pairs: list[dict]) -> dict:
    """Per context and timings column, each side's median and quartiles over
    the runs that ``read_timings`` read."""
    values = {}
    for p in pairs:
        for side in ("base", "change"):
            for context, columns in p[side].get("contexts", {}).items():
                for column, value in columns.items():
                    values.setdefault(context, {}).setdefault(column, {}).setdefault(
                        side, []).append(value)
    return {context: {column: {side: dict(zip(("q1", "median", "q3"), quartiles(v)))
                               for side, v in sides.items()}
                      for column, sides in columns.items()}
            for context, columns in sorted(values.items(), key=lambda item: int(item[0]))}


def summarize_worker_peak_rss(pairs: list[dict]) -> dict:
    """Each side's median and quartiles of the runs' ``worker_peak_rss_mb``."""
    out = {}
    for side in ("base", "change"):
        values = [p[side]["worker_peak_rss_mb"] for p in pairs
                  if "worker_peak_rss_mb" in p[side]]
        if values:
            out[side] = dict(zip(("q1", "median", "q3"), quartiles(values)))
    return out


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        cpu = next((ln.split(":", 1)[1].strip()
                    for ln in Path("/proc/cpuinfo").read_text().splitlines()
                    if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # perfbench/run.py gives BLAS one thread per usable CPU
        "blas_threads": len(os.sched_getaffinity(0)),
        "numpy": np.__version__, "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--workload", required=True,
                        choices=("ablate", "longcap-waste", "retrieval-eval"))
    parser.add_argument("--seeds", required=True, help="e.g. 601-610 or 601,603")
    parser.add_argument("--base", default="HEAD", help="base revision (default: HEAD)")
    parser.add_argument("--change", default=None,
                        help="change revision (default: the working tree)")
    parser.add_argument("--traced", type=int, default=2,
                        help="traced pairs after the untraced ones, on the first seeds")
    parser.add_argument("--workdir", default=None, help="where the two trees are exported")
    parser.add_argument("--out-dir", default=str(ROOT / "bench"),
                        help="where the file is written (default: bench/)")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    work = Path(tempfile.mkdtemp(prefix="bench-", dir=args.workdir))
    try:
        trees = {"base": work / "base", "change": work / "change"}
        revs = {"base": export_revision(args.base, trees["base"])}
        if args.change is None:
            trees["change"].mkdir()
            revs["change"] = export_working_tree(trees["change"])
        else:
            revs["change"] = export_revision(args.change, trees["change"])
        print(f"base {revs['base']}  change {revs['change']}", file=sys.stderr)
        started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        pairs = run_pairs(trees, args.workload, seeds, trace=False)
        traced = run_pairs(trees, args.workload, seeds[:args.traced], trace=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [p[s] for p in pairs for s in ("base", "change")]
    e2e = [m["name"] for m in bench["end_to_end"]]
    # a workload reports 0 for the layers it does not run
    layer_names = sorted({m for p in traced for s in ("base", "change")
                          for m, v in p[s].get("metrics", {}).items() if v})
    digests = {s: sorted({p[s].get("digest") for p in pairs + traced}, key=str)
               for s in ("base", "change")}
    result = {
        "label": args.label, "workload": args.workload, "started": started,
        "base": revs["base"], "change": revs["change"], "seeds": seeds,
        "command": f"perfbench/run.py --workload {args.workload} --seed S --trace 0|1",
        "machine": machine_facts(),
        "claim_rule": "change wins >= 9/10 of pairs (ties count for neither) and the "
                      "median gap in the better direction exceeds the base's IQR",
        "verdict_rule": "worse: the change's median is worse than the base's by more than "
                        "the bound; unresolved: the base's IQR exceeds the bound and not "
                        "every change run beats every base run; else within_bound (bound "
                        "and IQR as shares of the base's median)",
        "end_to_end": {m: summarize(pairs, m, better.get(m), bounds[m]) for m in e2e},
        "per_layer_traced": {m: summarize_layer(traced, m) for m in layer_names},
        "per_context_untraced": summarize_contexts(pairs),
        "worker_peak_rss_mb_untraced": summarize_worker_peak_rss(pairs),
        "failed_over_attempted": {
            s: [sum(p[s].get("failed", 0) for p in pairs),
                sum(p[s].get("attempted", 0) for p in pairs)] for s in ("base", "change")},
        "all_correct": all(r.get("correct") for r in runs),
        "digests": digests,
        "digests_equal": digests["base"] == digests["change"],
        "pairs": pairs, "traced_pairs": traced,
    }
    out = Path(args.out_dir) / f"BENCH_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    for m in e2e:
        s = result["end_to_end"][m]
        if "base" in s:
            print(f"{m:<12} base {s['base']['median']:.4g}  change {s['change']['median']:.4g}  "
                  f"wins {s.get('wins')}/{s.get('pairs')}  claim {s.get('claim_rule_met')}  "
                  f"verdict {s.get('verdict')}")
    for context, columns in result["per_context_untraced"].items():
        print(f"context {context:>4} " + "  ".join(
            f"{column} {sides['base']['median']:.4g} -> {sides['change']['median']:.4g}"
            for column, sides in columns.items() if len(sides) == 2))
    rss = result["worker_peak_rss_mb_untraced"]
    if len(rss) == 2:
        print(f"worker_peak_rss_mb {rss['base']['median']:.4g} -> {rss['change']['median']:.4g}")
    print(f"digests equal: {result['digests_equal']}  -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
