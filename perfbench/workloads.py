"""The three workloads: one round of longctx commands each, its checks, and
the metrics taken from it.

A round runs the workload's commands once, each in a fresh process started
by ``child.py``, as a user would type them.  The benchmark repeats whole
rounds, so every run attempts the same operations in the same proportions.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from longctx.data import load_corpus
from longctx.encoders import TrainedModel, load_checkpoint
from longctx.tokenizer import content_ids, decode, load_vocab, train_bpe

import checks
from spans import self_seconds

ROOT = Path(__file__).resolve().parent.parent
THREADS = len(os.sched_getaffinity(0))

# ablate: the paper's experiment, at the command's own desk profile
CONTEXTS = (77, 154, 512)
EPOCHS = 6
BATCH = 32
TARGET_LOSS = math.log(BATCH) / 2

# longcap-waste.  One in-flight record: more workers slow the in-process
# mock backend down and make its rate follow the host's load.
WASTE_VOCAB = 1024
LONGCAP_WORKERS = 1
CUTOFFS = (77, 512)
BPE_CHECK_CAPTIONS = 30
BPE_CHECK_VOCAB = 259 + 150

# retrieval-eval
ORACLE_QUERIES = 256
SINGLE_SAMPLE = 16

E2E = [  # name, unit, better
    ("setup_s", "s", "lower"),
    ("command_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
PER_LAYER = [
    ("tokenizer.train_bpe_s", "s", "lower"),
    *[(f"{m}.{c}", "ms", "lower") for c in CONTEXTS
      for m in ("trainer.step_ms", "trainer.step_ms_p95", "numerics.forward_ms",
                "numerics.backward_ms", "trainer.update_ms")],
    ("encoders.encode_texts_per_s", "1/s", "higher"),
    ("encoders.encode_images_per_s", "1/s", "higher"),
    ("tokenizer.encode_per_s", "1/s", "higher"),
    ("numerics.forward_ms.eval", "ms", "lower"),
    ("evaluation.queries_per_s", "1/s", "higher"),
    ("data.load_corpus_s", "s", "lower"),
    ("longcap.backend_s", "s", "lower"),
    ("longcap.backend_calls_per_record", "calls/record", "lower"),
    ("longcap.journal_append_ms", "ms", "lower"),
    ("longcap.journal_read_s", "s", "lower"),
    ("longcap.self_s", "s", "lower"),
    ("tokenizer.stats_tokens_per_s", "1/s", "higher"),
]


class Commands:
    """Starts ``child.py`` for one longctx command and times it."""

    def __init__(self, trace: bool, deadline: float):
        self.trace = trace
        self.deadline = deadline  # perf_counter time by which every command is killed
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("LONGCTX_")}
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(THREADS)
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, args: list[str], out: Path, tag: str) -> dict:
        result_path = out / f"{tag}.result.json"
        argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(result_path),
                "1" if self.trace else "0", "--", *args]
        with open(out / f"{tag}.log", "w") as log:
            start = time.perf_counter()
            timeout = max(0.1, self.deadline - start)
            try:
                code = subprocess.run(argv, cwd=ROOT, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout).returncode
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                code = None
            wall = time.perf_counter() - start
        if code is None:
            result = {"exit": None, "error": f"killed after {wall:.0f} s", "spans": [],
                      "maxrss_mb": 0.0}
        elif result_path.exists():
            result = json.loads(result_path.read_text())
        else:
            result = {"exit": code, "error": "no result", "spans": [], "maxrss_mb": 0.0}
        result["wall"] = wall
        result["ok"] = code == 0 and result["exit"] == 0
        result["npz"] = result_path.with_suffix(".npz")
        return result


def _spans(results, name, parent_names=None):
    """Spans called ``name`` across results, optionally only those whose
    parent span is one of ``parent_names``."""
    found = []
    for res in results:
        by_id = {s["id"]: s for s in res["spans"]}
        for s in res["spans"]:
            if s["name"] != name:
                continue
            if parent_names is not None and (
                    s["parent"] is None or by_id[s["parent"]]["name"] not in parent_names):
                continue
            found.append(s)
    return found


def _dur(spans) -> list[float]:
    return [s["end"] - s["start"] for s in spans]


def _rate(spans, key) -> float:
    total = sum(_dur(spans))
    return sum(s["attrs"][key] for s in spans) / total if total else 0.0


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def common_layers(results) -> dict:
    encode_texts = _spans(results, "encoders.encode_texts")
    by_encoder = _spans(results, "tokenizer.encode", {"encoders.encode_texts"})
    return {
        "tokenizer.train_bpe_s": sum(_dur(_spans(results, "tokenizer.train_bpe")), 0.0),
        "encoders.encode_texts_per_s": _rate(encode_texts, "items"),
        "encoders.encode_images_per_s": _rate(_spans(results, "encoders.encode_images"), "items"),
        "tokenizer.encode_per_s": len(by_encoder) / sum(_dur(by_encoder)) if by_encoder else 0.0,
        "numerics.forward_ms.eval": 1e3 * _median(_dur(
            _spans(results, "numerics.forward", {"encoders.encode_texts"}))),
        "evaluation.queries_per_s": _rate(_spans(results, "evaluation.recall_pair"), "queries"),
        "data.load_corpus_s": sum(_dur(_spans(results, "data.load_corpus")), 0.0),
    }


def training_layers(result) -> dict:
    """Per-step times of each ``train`` call, from its loss curve, split into
    forward, backward and the rest (batching, clipping, AdamW)."""
    layers = {}
    spans = result["spans"]
    for run in (s for s in spans if s["name"] == "trainer.train"):
        c = run["attrs"]["context"]
        fwd = [s["end"] - s["start"] for s in spans
               if s["parent"] == run["id"] and s["name"] == "numerics.forward"]
        bwd = [s["end"] - s["start"] for s in spans
               if s["parent"] == run["id"] and s["name"] == "numerics.backward"]
        # step i ends where the curve records it; step 0 has no start mark
        step = np.diff(run["attrs"]["seconds"])
        fwd, bwd = np.array(fwd[1:]), np.array(bwd[1:])
        layers.update({
            f"trainer.step_ms.{c}": 1e3 * float(np.median(step)),
            f"trainer.step_ms_p95.{c}": 1e3 * float(np.percentile(step, 95)),
            f"numerics.forward_ms.{c}": 1e3 * float(np.median(fwd)),
            f"numerics.backward_ms.{c}": 1e3 * float(np.median(bwd)),
            f"trainer.update_ms.{c}": 1e3 * float(np.median(step - fwd - bwd)),
        })
    return layers


# -- ablate ------------------------------------------------------------------------


def ablate_round(cmd: Commands, setup: dict, out: Path, seed: int) -> dict:
    res = cmd.run(["ablate", "--corpus", setup["corpus"],
                   "--contexts", ",".join(map(str, CONTEXTS)),
                   "--max-epochs", str(EPOCHS), "--seed", str(seed),
                   "--out", str(out / "ablate")], out, "ablate")
    steps = EPOCHS * (setup["pairs"] // BATCH)
    round_ = {"attempted": len(CONTEXTS) + 1, "failed": 0, "fails": [], "info": {},
              "e2e": {"command_s": res["wall"], "items_per_s": len(CONTEXTS) * steps / res["wall"],
                      "peak_rss_mb": res["maxrss_mb"]}}
    if not res["ok"]:
        round_["failed"] = round_["attempted"]
        round_["fails"].append(f"ablate exited {res['exit']}: {res['error']}")
        return round_
    curves = checks.read_convergence(out / "ablate" / "convergence.csv")
    table = checks.read_recalls(out / "ablate" / "ablation.csv")
    round_["fails"] += checks.check_convergence(curves, CONTEXTS, steps, TARGET_LOSS)
    round_["fails"] += checks.check_recall_table(table, str(min(CONTEXTS)), str(max(CONTEXTS)))
    round_["info"] = {
        "recall1_512": table[(str(max(CONTEXTS)), "t2i", 1)],
        "steps_to_target_512": checks.steps_to_target(curves[max(CONTEXTS)], TARGET_LOSS)}
    round_["digest"] = checks.digest(
        [out / "ablate" / "ablation.csv", out / "ablate" / "convergence.csv"])
    if cmd.trace:
        round_["layers"] = {**common_layers([res]), **training_layers(res)}
    return round_


# -- longcap-waste ----------------------------------------------------------------


def longcap_round(cmd: Commands, setup: dict, out: Path, seed: int) -> dict:
    journal = out / "journal.jsonl"
    passes = []
    for tag, records in (("pass1", setup["records_part"]), ("pass2", setup["records"])):
        passes.append(cmd.run(["longcap", "--records", records, "--backend", "mock",
                               "--workers", str(LONGCAP_WORKERS), "--resume", str(journal),
                               "--out", str(out / tag)], out, tag))
    torn_journal = out / "torn_journal.jsonl"
    shutil.copyfile(setup["torn_journal"], torn_journal)
    torn = cmd.run(["longcap", "--records", setup["torn_records"], "--backend", "mock",
                    "--workers", str(LONGCAP_WORKERS), "--resume", str(torn_journal),
                    "--out", str(out / "torn")], out, "torn")
    n = setup["count"]
    # records, the clean and the torn resume, and four commands
    round_ = {"attempted": n + 2 + 4, "failed": 0, "fails": [], "info": {}}
    if not torn["ok"]:
        # the known fault: read_journal raises on the torn final line
        round_["failed"] += 1
        if "JSONDecodeError" not in (torn["error"] or ""):
            round_["fails"].append(f"torn-journal resume failed otherwise: exit {torn['exit']}, "
                                   f"{torn['error']}")
    else:
        rows = [json.loads(x) for x in (out / "torn" / "longcap.jsonl").read_text().splitlines()]
        if len(rows) != setup["torn_count"] or any(r["status"] != "done" for r in rows):
            round_["fails"].append("resume from the torn journal lost records")
    for res in passes:
        if not res["ok"]:
            round_["failed"] += 1
            round_["fails"].append(f"longcap exited {res['exit']}: {res['error']}")
    if round_["fails"]:
        return round_

    rows = [json.loads(x) for x in (out / "pass2" / "longcap.jsonl").read_text().splitlines()]
    round_["fails"] += checks.check_enriched(rows, setup["inputs"], setup["planted"])
    first = list(setup["inputs"].values())[:setup["first_pass"]]
    round_["fails"] += checks.check_resume(passes[1].get("augment_captions", []), first)
    captions = [r["caption"] for r in rows]
    (out / "captions.txt").write_text("\n".join(captions) + "\n")

    stats = []
    for cutoff in CUTOFFS:
        vocab_args = (["--vocab-size", str(WASTE_VOCAB)] if cutoff == CUTOFFS[0]
                      else ["--vocab", str(out / f"waste{CUTOFFS[0]}" / "vocab")])
        stats.append(cmd.run(["tokenize-stats", "--captions", str(out / "captions.txt"),
                              "--cutoff", str(cutoff), *vocab_args,
                              "--out", str(out / f"waste{cutoff}")], out, f"waste{cutoff}"))
        if not stats[-1]["ok"]:
            round_["failed"] += 1
            round_["fails"].append(f"tokenize-stats exited {stats[-1]['exit']}: {stats[-1]['error']}")
            return round_
    # command_s spans all four commands: the waste report alone is a few
    # seconds of BPE training, too short a window to measure steadily
    longcap_s = sum(p["wall"] for p in passes)
    waste_s = sum(s["wall"] for s in stats)
    round_["e2e"] = {"command_s": longcap_s + waste_s, "items_per_s": n / longcap_s,
                     "peak_rss_mb": max(r["maxrss_mb"] for r in passes + stats)}

    vocab = load_vocab(out / f"waste{CUTOFFS[0]}" / "vocab")
    reports = {c: checks.read_report(out / f"waste{c}" / "report.txt") for c in CUTOFFS}
    round_["fails"] += checks.check_round_trip(vocab, captions, content_ids, decode)
    lengths = checks.reference_lengths(vocab.merges, vocab.size, captions)
    round_["fails"] += checks.check_waste(reports, lengths)
    sub = captions[:BPE_CHECK_CAPTIONS]
    round_["fails"] += checks.check_merges(train_bpe(sub, BPE_CHECK_VOCAB).merges, sub,
                                           BPE_CHECK_VOCAB)
    round_["info"] = {"waste_report_s": waste_s, "vocab_ids": vocab.size,
                      **{f"waste_fraction_{c}": float(r["waste_fraction"])
                         for c, r in reports.items()},
                      "over_512_tokens": sum(x > 510 for x in lengths)}
    round_["digest"] = checks.digest(
        [out / "pass2" / "longcap.jsonl"] + [out / f"waste{c}" / "report.txt" for c in CUTOFFS])
    if cmd.trace:
        backend = _spans(passes, "longcap.backend")
        io = backend + _spans(passes, "longcap.append_journal") + _spans(passes, "longcap.read_journal")
        round_["layers"] = {
            **common_layers(stats),
            "longcap.backend_s": sum(_dur(backend)),
            "longcap.backend_calls_per_record": len(backend) / n,
            "longcap.journal_append_ms": 1e3 * _median(_dur(_spans(passes, "longcap.append_journal"))),
            "longcap.journal_read_s": sum(_dur(_spans(passes[1:], "longcap.read_journal"))),
            "longcap.self_s": sum(self_seconds(s, io) for s in _spans(passes, "longcap.run_pipeline")),
            "tokenizer.stats_tokens_per_s": _rate(_spans(stats, "tokenizer.corpus_token_stats"), "tokens"),
        }
    return round_


# -- retrieval-eval ----------------------------------------------------------------


def eval_round(cmd: Commands, setup: dict, out: Path, seed: int) -> dict:
    res = cmd.run(["eval-retrieval", "--checkpoint", setup["checkpoint"],
                   "--vocab", setup["vocab"], "--corpus", setup["corpus"],
                   "--out", str(out / "eval")], out, "eval")
    n = setup["pairs"]
    round_ = {"attempted": 2 * n, "failed": 0, "fails": [], "info": {},
              "e2e": {"command_s": res["wall"], "items_per_s": 2 * n / res["wall"],
                      "peak_rss_mb": res["maxrss_mb"]}}
    if not res["ok"]:
        round_["failed"] = round_["attempted"]
        round_["fails"].append(f"eval-retrieval exited {res['exit']}: {res['error']}")
        return round_
    table = checks.read_recalls(out / "eval" / "retrieval.csv")
    with np.load(res["npz"]) as cap:
        z_img, z_txt = cap["z_img"], cap["z_txt"]
        ranks = {"t2i": cap["ranks_t2i"], "i2t": cap["ranks_i2t"]}
    round_["fails"] += checks.check_embeddings(z_txt, "text")
    round_["fails"] += checks.check_embeddings(z_img, "image")
    rng = np.random.default_rng(seed)
    picks = np.sort(rng.choice(n, size=ORACLE_QUERIES, replace=False))
    round_["fails"] += checks.check_ranks(ranks, z_img, z_txt, table, picks)
    round_["fails"] += checks.check_chance(table, n)
    # the same model as the command: checkpoint and vocabulary as loaded by it
    text_cfg, img_cfg, params, log_scale = load_checkpoint(setup["checkpoint"])
    model = TrainedModel(text_cfg=text_cfg, img_cfg=img_cfg, params=params,
                         vocab=load_vocab(setup["vocab"]), log_scale=log_scale)
    sample = picks[:SINGLE_SAMPLE]
    captions = load_corpus(setup["corpus"]).captions()
    single = np.concatenate([model.encode_texts([captions[i]]) for i in sample])
    round_["fails"] += checks.check_single_vs_batched(single, z_txt[sample])
    round_["info"] = {f"recall1_{d}": table[("corpus", d, 1)] for d in ("t2i", "i2t")}
    round_["digest"] = checks.digest([out / "eval" / "retrieval.csv"])
    if cmd.trace:
        round_["layers"] = common_layers([res])
    return round_


ROUNDS = {"ablate": ablate_round, "longcap-waste": longcap_round,
          "retrieval-eval": eval_round}
