"""The longctx benchmark: three seeded workloads run through longctx's own
commands, with every output checked, timed end to end and per module.

    python3 perfbench/run.py --workload ablate --seed 1 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, untraced and traced

A run sets up its inputs several times from the seed (``setup_s`` is the
median), then repeats whole rounds of the workload's commands until
``--seconds`` (by default ``run_seconds`` of BENCHMARK.json) have passed,
and reports the median over rounds.  With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-module metrics.  Without ``--workload`` every
workload runs untraced and then traced; the difference is printed as the
tracing overhead, and the run ends with the total of operations attempted
and failed.  Inputs and outputs go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# set-up repeats at least SETUPS times and until SETUP_SECONDS have passed,
# so a quick set-up is timed often enough for its median to hold steady
SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 4.0, 15
# a run must end within 180 s: a command still running this long after the
# run began is killed and counted as failed
DEADLINE_S = 165

# this process sets up inputs and runs the checks; BLAS must see the thread
# cap before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from inputs import MAKERS, fresh_dir
    from workloads import E2E, PER_LAYER, ROUNDS, Commands

    deadline = time.perf_counter() + DEADLINE_S
    base = fresh_dir(OUT / f"{name}-seed{seed}-trace{int(trace)}")
    setup_s = []
    while len(setup_s) < SETUPS or (sum(setup_s) < SETUP_SECONDS and len(setup_s) < MAX_SETUPS):
        k = len(setup_s)
        start = time.perf_counter()
        setup = MAKERS[name](fresh_dir(base / f"setup{k}"), seed)
        setup_s.append(time.perf_counter() - start)
        if k:
            shutil.rmtree(base / f"setup{k - 1}")
    cmd = Commands(trace, deadline)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(ROUNDS[name](cmd, setup, fresh_dir(base / f"round{len(rounds)}"), seed))
    elapsed = time.perf_counter() - start

    fails = [msg for r in rounds for msg in r["fails"]]
    e2e = {"setup_s": statistics.median(setup_s)}
    for metric, _, _ in E2E[1:]:
        values = [r["e2e"][metric] for r in rounds if "e2e" in r]
        e2e[metric] = statistics.median(values) if values else float("nan")
    layers = {metric: statistics.median([r.get("layers", {}).get(metric, 0.0) for r in rounds])
              for metric, _, _ in PER_LAYER} if trace else {}
    info = {key: statistics.median(values) for key in rounds[0]["info"]
            if (values := [r["info"][key] for r in rounds if r["info"].get(key) is not None])}
    return {
        "workload": name, "seed": seed, "trace": trace, "rounds": len(rounds),
        "elapsed": elapsed, "correct": not fails, "fails": fails,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "digests": sorted({r.get("digest", "none") for r in rounds}),
        "e2e": e2e, "layers": layers, "info": info,
        "per_round": {m: [r["e2e"][m] for r in rounds if "e2e" in r] for m, _, _ in E2E[1:]},
        "units": {m: u for m, u, _ in E2E + PER_LAYER},
    }


def show(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
          f"{result['rounds']} round(s) in {result['elapsed']:.1f} s")
    for metric, value in {**result["e2e"], **result["layers"]}.items():
        print(f"  {metric:<34} {value:>14.6g} {result['units'][metric]}")
    for metric, values in result["per_round"].items():
        print(f"  {metric + ' by round':<34} " + " ".join(f"{v:.6g}" for v in values))
    for key, value in result["info"].items():
        print(f"  {key:<34} {value:>14.6g}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}  digest {','.join(result['digests'])}")
    for msg in result["fails"]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)


def as_json(result: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": result["units"][m]} for m, v in metrics.items()}})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("ablate", "longcap-waste", "retrieval-eval"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "longctx" / "cli.py").is_file():
        print(f"perfbench: no longctx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        show(result)
        print(as_json(result, result["layers"] if args.trace else result["e2e"]))
        return 0

    totals = {"attempted": 0, "failed": 0, "correct": True}
    for name in ("ablate", "longcap-waste", "retrieval-eval"):
        plain = run_workload(name, args.seed, args.seconds, False)
        traced = run_workload(name, args.seed, args.seconds, True)
        show(plain)
        show(traced)
        for metric in ("command_s", "items_per_s"):
            change = traced["e2e"][metric] / plain["e2e"][metric] - 1.0
            print(f"  tracing overhead on {metric}: {100 * change:+.1f}%")
        for res in (plain, traced):
            totals = {"attempted": totals["attempted"] + res["attempted"],
                      "failed": totals["failed"] + res["failed"],
                      "correct": totals["correct"] and res["correct"]}
    print("all workloads: attempted {attempted}  failed {failed}  correct {correct}".format(
        **totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
