"""Single executable exposing the full experimental loop.

Subcommands map one-to-one onto the lab's analyses: ``tokenize-stats``
(token-waste histogram numbers), ``train`` (one contrastive run),
``eval-retrieval`` / ``eval-zeroshot`` (the two evaluation protocols),
``longcap`` (caption augmentation), ``make-synthetic`` / ``build-benchmark``
(data construction), and ``ablate`` (train+eval across context lengths with
a comparison table and convergence curves).

Configuration precedence per command: built-in defaults < ``--config`` file
< ``LONGCTX_<KEY>`` environment variables < explicit flags.  Unknown config
keys are rejected.  Every command echoes its effective configuration and the
package version into the output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .data import (
    SyntheticSpec,
    build_long_caption_benchmark,
    generate_synthetic,
    load_articles,
    load_corpus,
    parse_config_file,
    read_text,
    save_corpus,
    write_benchmark_manifest,
    write_csv,
)
from .errors import DataError, LongCtxError, UsageError
from .evaluation import (
    RETRIEVAL_BLOCK,
    RetrievalResult,
    ZeroShotTask,
    check_block_size,
    format_retrieval_summary,
    permute_options,
    read_zero_shot_records,
    recall_pair,
    retrieval_csv_rows,
    RETRIEVAL_CSV_HEADER,
    zero_shot_classify,
)
from .longcap import (
    MockBackend,
    check_workers,
    make_backend,
    read_caption_records,
    run_pipeline,
    write_output_corpus,
)
from .tokenizer import (
    check_cutoff,
    corpus_token_stats,
    format_waste_report,
    load_vocab,
    save_vocab,
    train_bpe,
    vocab_fingerprint,
    waste_report_fields,
)

# training and checkpoints load numerics, encoders and the trainer: the
# commands that need them import them when they run
if TYPE_CHECKING:
    from .encoders import TrainedModel
    from .trainer import LossPoint, TrainConfig

ENV_PREFIX = "LONGCTX_"

# Per-command option schema: key -> (type, default, help).  Keys mirror the
# config-file / environment spelling; flags swap underscores for dashes.
TRAIN_KNOBS = {
    "context_length": (int, 512, "text context window"),
    "batch_size": (int, 64, "contrastive batch size"),
    "learning_rate": (float, 5e-4, "peak learning rate"),
    "max_epochs": (int, 20, "training epochs"),
    "warmup_steps": (int, 1000, "warmup steps (auto-shrunk desk-scale)"),
    "weight_decay": (float, 0.2, "decoupled weight decay"),
    "grad_clip_norm": (float, 1.0, "global gradient-norm clip"),
    "vocab_size": (int, 8192, "BPE vocabulary size"),
    "embed_dim": (int, 64, "text embedding width"),
    "num_layers": (int, 2, "transformer layers"),
    "num_heads": (int, 4, "attention heads"),
    "output_dim": (int, 32, "shared embedding dimension"),
    "hidden_dim": (int, 128, "image MLP width"),
    "dtype": (str, "float64", "float64 or float32"),
}

# desk-scale profile calibrated on the synthetic corpus: small batches give
# the association phase enough optimizer steps, float32 keeps it fast
ABLATE_KNOBS = dict(TRAIN_KNOBS)
ABLATE_KNOBS.update({
    "batch_size": (int, 32, "contrastive batch size"),
    "learning_rate": (float, 2e-3, "peak learning rate"),
    "weight_decay": (float, 0.0, "decoupled weight decay"),
    "vocab_size": (int, 1850, "BPE vocabulary size"),
    "embed_dim": (int, 48, "text embedding width"),
    "num_layers": (int, 1, "transformer layers"),
    "num_heads": (int, 2, "attention heads"),
    "dtype": (str, "float32", "float64 or float32"),
})

CORPUS_HELP = "corpus: a record file (jsonl), a .tar shard or a directory of shards"

SCHEMAS = {
    "tokenize-stats": {
        "corpus": (str, "", CORPUS_HELP),
        "captions": (str, "", "plain text file, one caption per line"),
        "cutoff": (int, 77, "content-token cutoff"),
        "vocab": (str, "", "existing vocabulary directory"),
        "vocab_size": (int, 8192, "vocabulary size when training fresh"),
        "out": (str, "", "output directory"),
    },
    "make-synthetic": {
        "classes": (int, 10, "number of classes"),
        "per_class": (int, 200, "samples per class"),
        "image_dim": (int, 64, "image feature dimension"),
        "prefix_tokens": (int, 100, "guaranteed class-free prefix words"),
        "class_token_position": (int, 110, "0-based class-word position"),
        "noise_std": (float, 0.15, "within-class image offset scale"),
        "seed": (int, 0, "seed"),
        "out": (str, "", "output directory"),
    },
    "train": {
        "corpus": (str, "", CORPUS_HELP),
        "seed": (int, 0, "seed"),
        "out": (str, "", "output directory"),
        **TRAIN_KNOBS,
    },
    "eval-retrieval": {
        "checkpoint": (str, "", "checkpoint file"),
        "vocab": (str, "", "vocabulary directory"),
        "corpus": (str, "", CORPUS_HELP),
        "ks": (str, "1,5,10", "comma-separated recall Ks"),
        "benchmark": (str, "corpus", "benchmark name for the result rows"),
        "block_size": (int, RETRIEVAL_BLOCK, "query rows scored per block"),
        "out": (str, "", "output directory"),
    },
    "eval-zeroshot": {
        "checkpoint": (str, "", "checkpoint file"),
        "vocab": (str, "", "vocabulary directory"),
        "corpus": (str, "", CORPUS_HELP),
        "task": (str, "", "zero-shot task records (jsonl)"),
        "permute_seed": (int, -1, "option-permutation seed (-1: off)"),
        "out": (str, "", "output directory"),
    },
    "longcap": {
        "records": (str, "", "caption records (jsonl)"),
        "backend": (str, "mock", "'mock' or an HTTP endpoint"),
        "workers": (int, None, "max in-flight records (default: 1 for the mock "
                               "backend, 4 for HTTP; a flag, config or env value wins)"),
        "resume": (str, "", "journal file to resume from (default: out/journal.jsonl)"),
        "out": (str, "", "output directory"),
    },
    "build-benchmark": {
        "articles": (str, "", "article records (jsonl)"),
        "min_date": (str, "", "skip articles older than this ISO date"),
        "seed": (int, 0, "figure sampling seed"),
        "out": (str, "", "output directory"),
    },
    "ablate": {
        "corpus": (str, "", CORPUS_HELP),
        "contexts": (str, "77,154,512", "comma-separated context lengths"),
        "ks": (str, "1,5,10", "comma-separated recall Ks"),
        "seed": (int, 0, "seed"),
        "out": (str, "", "output directory"),
        **ABLATE_KNOBS,
    },
}
# the contexts list drives the ablation; a single context_length would clash
SCHEMAS["ablate"].pop("context_length")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longctx",
        description="Long-context contrastive image-text lab.")
    parser.add_argument("--version", action="version", version=f"longctx {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        sub = subs.add_parser(command)
        sub.add_argument("--config", default=None, help="flat key=value config file")
        for key, (typ, default, help_text) in schema.items():
            shown = "" if default in (None, "") else f" (default: {default})"
            sub.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ,
                             default=None, help=help_text + shown)
    return parser


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """defaults < config file < environment < flags; unknown keys rejected."""
    schema = SCHEMAS[command]
    merged = {key: default for key, (_, default, _) in schema.items()}
    if args.config:
        for key, raw in parse_config_file(args.config).items():
            if key not in schema:
                raise UsageError(f"unknown config key {key!r} for {command}")
            merged[key] = _cast(schema, key, raw, f"config file {args.config}")
    for key in schema:
        var = ENV_PREFIX + key.upper()
        raw = os.environ.get(var)
        if raw is not None:
            merged[key] = _cast(schema, key, raw, f"environment variable {var}")
    for key in schema:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return merged


def _cast(schema: dict, key: str, raw: str, source: str):
    typ = schema[key][0]
    try:
        return typ(raw)
    except ValueError:
        raise UsageError(f"bad value {raw!r} for {key} in {source}: "
                         f"expected {typ.__name__}") from None


def prepare_out_dir(command: str, cfg: dict) -> Path:
    out = cfg.get("out")
    if not out:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out = f"runs/{command}-{stamp}-seed{cfg.get('seed', 0)}"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    lines = [f"version={__version__}", f"command={command}"]
    lines += [f"{k}={v}" for k, v in sorted(cfg.items()) if k != "out"]
    (path / "config.txt").write_text("\n".join(lines) + "\n")
    return path


def _require_input(cfg, key, flag=None):
    if not cfg.get(key):
        raise UsageError(f"missing required input: --{(flag or key).replace('_', '-')}")
    return cfg[key]


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values or min(values) < 1 or len(set(values)) < len(values):
        raise UsageError(f"bad {what} list {text!r}: expected distinct integers of at least 1")
    return values


def _train_config(cfg: dict, context_length: int, seed: int) -> TrainConfig:
    from .trainer import TrainConfig

    return TrainConfig(
        context_length=context_length,
        batch_size=cfg["batch_size"],
        learning_rate=cfg["learning_rate"],
        warmup_steps=cfg["warmup_steps"],
        max_epochs=cfg["max_epochs"],
        grad_clip_norm=cfg["grad_clip_norm"],
        seed=seed,
        weight_decay=cfg["weight_decay"],
        dtype=cfg["dtype"],
    )


def _encoder_configs(cfg: dict, context_length: int, vocab_size: int, image_dim: int):
    from .encoders import ImageEncoderConfig, TextEncoderConfig

    text_cfg = TextEncoderConfig(
        context_length=context_length, vocab_size=vocab_size,
        embed_dim=cfg["embed_dim"], num_layers=cfg["num_layers"],
        num_heads=cfg["num_heads"], output_dim=cfg["output_dim"])
    img_cfg = ImageEncoderConfig(
        input_dim=image_dim, hidden_dim=cfg["hidden_dim"],
        num_layers=2, output_dim=cfg["output_dim"])
    return text_cfg, img_cfg


def _check_model_configs(cfg: dict, contexts, corpus) -> None:
    """Refuse a bad training or encoder value, or a corpus smaller than one
    batch, before any output or BPE.  The trained vocabulary's size is not
    known yet, so the requested size stands in for it; the runs build their
    configs again with the trained one."""
    for context in contexts:
        _train_config(cfg, context, cfg["seed"]).check_corpus_size(len(corpus))
        _encoder_configs(cfg, context, cfg["vocab_size"], corpus.image_dim)


@dataclass(frozen=True)
class AblationRun:
    context: int
    t2i: RetrievalResult
    i2t: RetrievalResult
    curve: list[LossPoint]
    steps_to_target: int | None     # first step at loss <= ln(batch_size)/2
    train_s: float                  # wall time of the ``train`` call
    peak_rss_mb: float              # the running process's peak RSS when the run ended


def _ablation_run(cfg: dict, corpus, vocab, context: int, ks) -> AblationRun:
    """One context of the ablation: train, then score retrieval both ways."""
    from .trainer import steps_to_loss, train

    train_cfg = _train_config(cfg, context, cfg["seed"])
    text_cfg, img_cfg = _encoder_configs(cfg, context, vocab.size, corpus.image_dim)
    start = time.perf_counter()
    result = train(train_cfg, corpus, text_cfg, img_cfg, vocab)
    train_s = time.perf_counter() - start
    z_txt = result.model.encode_texts(corpus.captions())
    z_img = result.model.encode_images(corpus.images())
    t2i, i2t = recall_pair(z_img, z_txt, ks=ks)
    steps = steps_to_loss(result.curve, math.log(cfg["batch_size"]) / 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return AblationRun(context, t2i, i2t, result.curve, steps, train_s, peak_rss_mb)


# read once, when a process loads its BLAS library
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _ablation_worker(conn) -> None:
    """Answer each context sent on ``conn`` with its run or its error, until
    the parent's end of the pipe is gone (closed, or the parent killed).  A
    killed parent also ends a run in progress: a daemon thread exits the
    process as soon as the parent's sentinel fires."""
    import importlib
    import threading
    from multiprocessing import connection, parent_process

    def exit_with_parent():
        connection.wait([parent_process().sentinel])
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()
    with contextlib.suppress(EOFError, BrokenPipeError):
        # the run function with its corpus, then the trainer's import, while the
        # parent trains BPE; then the vocabulary, once
        run = conn.recv()
        importlib.import_module(".trainer", __package__)
        vocab = conn.recv()
        while True:
            context = conn.recv()
            try:
                conn.send(run(vocab, context))
            except Exception as exc:  # the run's error, or its result's pickling error
                conn.send(exc)


@contextlib.contextmanager
def ablation_workers(jobs: int):
    """Start the ablation's ``spawn`` workers, one per usable CPU and at most
    one per job, at one BLAS thread: these GEMMs are too small to split.
    Yields this process's end of each worker's pipe, mapped to the worker.

    Each worker imports numpy while the caller reads the corpus, then
    unpickles its run and imports the trainer while the caller trains BPE.
    On the way out an idle worker reads EOF and returns; if the block raised,
    every worker is terminated.  None outlives the block."""
    from multiprocessing import Pipe, get_context  # ~10 ms only ablate pays

    workers = {}
    saved = {var: os.environ[var] for var in _BLAS_THREAD_VARS if var in os.environ}
    try:
        try:
            # a spawned worker may load numpy before our code runs: it inherits the cap
            os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
            for _ in range(min(jobs, len(os.sched_getaffinity(0)))):
                pipe, worker_end = Pipe()
                worker = get_context("spawn").Process(target=_ablation_worker,
                                                      args=(worker_end,))
                worker.start()
                workers[pipe] = worker
                worker_end.close()
        finally:
            for var in _BLAS_THREAD_VARS:
                os.environ.pop(var, None)
            os.environ.update(saved)
        yield workers
    except BaseException:
        for worker in workers.values():
            worker.terminate()
        raise
    finally:
        for pipe in workers:
            pipe.close()
        for worker in workers.values():
            worker.join()


def run_ablation(workers: dict, cfg: dict, corpus, train_vocab, contexts,
                 ks) -> list[AblationRun]:
    """Per context, one model trained and scored by two-way retrieval on the
    corpus: the context-length ablation for seed ``cfg["seed"]``, with the
    vocabulary that ``train_vocab()`` returns.

    Contexts train on ``workers`` from ``ablation_workers``.  The run
    function, with ``cfg`` and the corpus bound, is pickled once; a thread
    sends those bytes to every worker while ``train_vocab`` runs here, and
    the vocabulary follows.  A free worker gets the longest context left.
    Runs come back in ``contexts`` order, equal bit for bit to a loop of
    ``_ablation_run`` here.  A worker's error is raised as itself, a dead
    worker is a ``LongCtxError``."""
    import pickle
    import threading
    from multiprocessing import connection

    def hand_out(run: bytes) -> None:
        for pipe in workers:
            with contextlib.suppress(BrokenPipeError):  # a dead worker shows as EOF below
                pipe.send_bytes(run)

    # the thread drops the bytes once they are sent
    sender = threading.Thread(target=hand_out, args=(
        pickle.dumps(functools.partial(_ablation_run, cfg, corpus, ks=ks)),))
    sender.start()
    try:
        vocab = train_vocab()
    finally:
        sender.join()  # no other message goes out on a pipe before the run
    todo = sorted(range(len(contexts)), key=contexts.__getitem__)  # pop() is the longest
    runs = [None] * len(contexts)
    busy = {}  # this process's end of a worker's pipe -> its job
    for pipe in workers:
        busy[pipe] = todo.pop()
        with contextlib.suppress(BrokenPipeError):
            pipe.send(vocab)
            pipe.send(contexts[busy[pipe]])
    while busy:
        for pipe in connection.wait(list(busy)):
            try:
                result = pipe.recv()
            except EOFError:  # spawn gave the worker its pipe end alone: it has exited
                workers[pipe].join()
                left = ",".join(str(c) for c, r in zip(contexts, runs) if r is None)
                raise LongCtxError(f"an ablation worker exited with code "
                                   f"{workers[pipe].exitcode}; contexts {left} did not "
                                   "finish") from None
            if isinstance(result, Exception):
                raise result
            runs[busy.pop(pipe)] = result
            if todo:
                busy[pipe] = todo.pop()
                with contextlib.suppress(BrokenPipeError):
                    pipe.send(contexts[busy[pipe]])
    return runs


# -- commands -----------------------------------------------------------------------


def cmd_tokenize_stats(cfg: dict) -> int:
    check_cutoff(cfg["cutoff"])
    if bool(cfg["corpus"]) == bool(cfg["captions"]):
        raise UsageError("give exactly one of --corpus and --captions")
    if cfg["corpus"]:
        captions = load_corpus(cfg["corpus"]).captions()
    else:
        # newlines only, as every JSON-lines input; a CRLF file keeps working
        captions = [ln.removesuffix("\r") for ln in read_text(cfg["captions"]).split("\n")]
        captions = [c for c in captions if c]
    out = prepare_out_dir("tokenize-stats", cfg)
    short = ""
    if cfg["vocab"]:
        vocab = load_vocab(cfg["vocab"])
    else:
        vocab = train_bpe(captions, cfg["vocab_size"])
        save_vocab(vocab, out / "vocab")
        if vocab.size < cfg["vocab_size"]:
            short = f"trained_vocab_size={vocab.size}\nrequested_vocab_size={cfg['vocab_size']}\n"
            print(f"vocabulary: trained {vocab.size} of the {cfg['vocab_size']} ids "
                  f"asked for; no pair was left to merge")
    report = corpus_token_stats(vocab, captions, cfg["cutoff"])
    (out / "report.txt").write_text(format_waste_report(report) + short)
    fields = waste_report_fields(report)
    write_csv(out / "summary.csv", list(fields), [list(fields.values())])
    print(f"cutoff={report.cutoff} waste_fraction={report.waste_fraction:.4f} "
          f"({report.wasted_tokens}/{report.total_tokens} tokens) -> {out}")
    return 0


def cmd_make_synthetic(cfg: dict) -> int:
    spec = SyntheticSpec(
        num_classes=cfg["classes"], samples_per_class=cfg["per_class"],
        image_dim=cfg["image_dim"], distractor_prefix_tokens=cfg["prefix_tokens"],
        class_token_position=cfg["class_token_position"],
        noise_std=cfg["noise_std"], seed=cfg["seed"])
    corpus, labels = generate_synthetic(spec)
    out = prepare_out_dir("make-synthetic", cfg)
    save_corpus(corpus, out / "corpus.jsonl")
    write_csv(out / "labels.csv", ["id", "class_word"],
              ([rec.id, label] for rec, label in zip(corpus.records, labels)))
    print(f"wrote {len(corpus)} records ({spec.num_classes} classes) -> {out}")
    return 0


def cmd_train(cfg: dict) -> int:
    from .encoders import save_checkpoint
    from .trainer import train, write_loss_curve

    corpus = load_corpus(_require_input(cfg, "corpus"))
    _check_model_configs(cfg, [cfg["context_length"]], corpus)
    out = prepare_out_dir("train", cfg)
    train_cfg = _train_config(cfg, cfg["context_length"], cfg["seed"])
    vocab = train_bpe(corpus.captions(), cfg["vocab_size"])
    text_cfg, img_cfg = _encoder_configs(cfg, cfg["context_length"],
                                         vocab.size, corpus.image_dim)
    result = train(train_cfg, corpus, text_cfg, img_cfg, vocab)
    save_vocab(vocab, out / "vocab")
    save_checkpoint(out / "checkpoint.npz", text_cfg, img_cfg,
                    result.model.params, result.model.log_scale, vocab=vocab)
    write_loss_curve(result.curve, out / "losscurve.csv")
    print(f"trained {len(result.curve)} steps, final loss {result.curve[-1].loss:.4f} "
          f"-> {out}")
    return 0


# glibc's mallopt parameters (malloc.h)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    """Have glibc keep up to 64 MiB of freed heap in this process.

    Each batch of ``encode_texts`` frees its arrays, about twice its largest,
    at the top of the heap.  By default glibc returns them to the system
    once they exceed twice the largest mapped block freed so far, so every
    batch faults the same pages in again: 200k page faults, 0.4 s, for
    8,000 captions at context 512.  Without glibc's ``mallopt`` nothing
    changes."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # a set threshold stops glibc moving the other, so both are set: blocks
    # up to glibc's largest mapping threshold come from the heap
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def _load_model(cfg: dict) -> TrainedModel:
    """The checked model of an ``eval-*`` command, whose batched forward
    passes run on a heap that keeps its freed pages."""
    from .encoders import TrainedModel, checkpoint_vocab_fingerprint, load_checkpoint

    _keep_freed_heap()
    checkpoint, vocab_dir = _require_input(cfg, "checkpoint"), _require_input(cfg, "vocab")
    text_cfg, img_cfg, params, log_scale = load_checkpoint(checkpoint)
    vocab = load_vocab(vocab_dir)
    if vocab.size != text_cfg.vocab_size:
        raise DataError(f"vocabulary {vocab_dir} has {vocab.size} ids but checkpoint "
                        f"{checkpoint} was trained on {text_cfg.vocab_size}")
    recorded, actual = checkpoint_vocab_fingerprint(checkpoint), vocab_fingerprint(vocab)
    if recorded is not None and recorded != actual:
        raise DataError(f"vocabulary {vocab_dir} (sha256 {actual[:12]}) is not the one "
                        f"checkpoint {checkpoint} was trained on (sha256 {recorded[:12]})")
    return TrainedModel(text_cfg=text_cfg, img_cfg=img_cfg, params=params,
                        vocab=vocab, log_scale=log_scale)


def cmd_eval_retrieval(cfg: dict) -> int:
    ks = _parse_int_list(cfg["ks"], "K")
    check_block_size(cfg["block_size"])
    model = _load_model(cfg)
    corpus = load_corpus(_require_input(cfg, "corpus"))
    out = prepare_out_dir("eval-retrieval", cfg)
    z_txt = model.encode_texts(corpus.captions())
    z_img = model.encode_images(corpus.images())
    t2i, i2t = recall_pair(z_img, z_txt, ks=ks, block_size=cfg["block_size"])
    write_csv(out / "retrieval.csv", RETRIEVAL_CSV_HEADER,
              retrieval_csv_rows(cfg["benchmark"], [t2i, i2t]))
    summary = format_retrieval_summary(cfg["benchmark"], [t2i, i2t])
    (out / "summary.txt").write_text(summary)
    print(summary.strip())
    print(f"-> {out}")
    return 0


def cmd_eval_zeroshot(cfg: dict) -> int:
    model = _load_model(cfg)
    corpus = load_corpus(_require_input(cfg, "corpus"))
    records = read_zero_shot_records(_require_input(cfg, "task"))
    missing = [ref for ref, _, _ in records if ref not in corpus]
    if missing:
        raise UsageError(f"task references unknown corpus ids: {missing[:3]}")
    images = np.stack([corpus[ref].image for ref, _, _ in records])
    task = ZeroShotTask(
        image_embeddings=model.encode_images(images),
        option_texts=tuple(opts for _, opts, _ in records),
        correct_index=tuple(ci for _, _, ci in records))
    if cfg["permute_seed"] >= 0:
        task = permute_options(task, cfg["permute_seed"])
    outcome = zero_shot_classify(task, model)
    out = prepare_out_dir("eval-zeroshot", cfg)
    write_csv(out / "predictions.csv", ["item", "prediction", "correct"],
              ([i, p, c] for i, (p, c) in
               enumerate(zip(outcome.predictions, task.correct_index))))
    (out / "summary.txt").write_text(f"accuracy={outcome.accuracy:.6f}\n"
                                     f"items={len(records)}\n")
    print(f"zero-shot accuracy {outcome.accuracy:.4f} on {len(records)} items -> {out}")
    return 0


def cmd_longcap(cfg: dict) -> int:
    records = read_caption_records(_require_input(cfg, "records"))
    backend = make_backend(cfg["backend"])
    if cfg["workers"] is None:
        # the in-process mock is CPU-bound: extra threads only contend for
        # the interpreter lock, while HTTP calls overlap their waiting
        cfg["workers"] = 1 if isinstance(backend, MockBackend) else 4
    check_workers(cfg["workers"])
    out = prepare_out_dir("longcap", cfg)
    journal = Path(cfg["resume"]) if cfg["resume"] else out / "journal.jsonl"
    corpus = run_pipeline(records, backend, journal_path=journal,
                          max_workers=cfg["workers"])
    write_output_corpus(corpus, out / "longcap.jsonl")
    n_done = sum(r.status == "done" for r in corpus.results)
    (out / "summary.txt").write_text(
        f"records={len(corpus.results)}\ndone={n_done}\n"
        f"failure_rate={corpus.failure_rate:.4f}\n")
    print(f"longcap: {n_done}/{len(corpus.results)} done "
          f"(failure rate {corpus.failure_rate:.2%}) -> {out}")
    return 0


def cmd_build_benchmark(cfg: dict) -> int:
    articles = load_articles(_require_input(cfg, "articles"))
    build = build_long_caption_benchmark(articles, seed=cfg["seed"],
                                         min_date=cfg["min_date"])
    out = prepare_out_dir("build-benchmark", cfg)
    save_corpus(build.corpus, out / "benchmark.jsonl")
    write_benchmark_manifest(build, out / "manifest.csv")
    print(f"benchmark: {len(build.corpus)} pairs "
          f"({build.skipped_articles} articles skipped) -> {out}")
    return 0


def _timings_row(r: AblationRun) -> list:
    """Step times are the gaps between the loss curve's marks, so step 0
    (no start mark) is left out; ``nan`` when fewer than two steps ran."""
    steps = 1e3 * np.diff([p.seconds for p in r.curve])
    p50, p95 = np.percentile(steps, (50, 95)) if len(steps) else (math.nan, math.nan)
    return [r.context, len(r.curve), f"{r.train_s:.3f}", f"{p50:.3f}", f"{p95:.3f}",
            f"{r.peak_rss_mb:.1f}"]


def cmd_ablate(cfg: dict) -> int:
    corpus_path = _require_input(cfg, "corpus")
    contexts = _parse_int_list(cfg["contexts"], "context")
    ks = _parse_int_list(cfg["ks"], "K")
    # the workers start up while this process reads the corpus, and unpickle it
    # while this process trains BPE
    with ablation_workers(len(contexts)) as workers:
        corpus = load_corpus(corpus_path)
        _check_model_configs(cfg, contexts, corpus)
        out = prepare_out_dir("ablate", cfg)
        runs = run_ablation(workers, cfg, corpus,
                            lambda: train_bpe(corpus.captions(), cfg["vocab_size"]),
                            contexts, ks)
    write_csv(out / "ablation.csv", ["context", *RETRIEVAL_CSV_HEADER[1:]],
              (row for r in runs for row in retrieval_csv_rows(str(r.context), [r.t2i, r.i2t])))
    write_csv(out / "convergence.csv", ["context", "step", "loss"],
              ([r.context, p.step, p.loss] for r in runs for p in r.curve))
    k = min(ks)
    lines = [f"context R@{k}(t2i) R@{k}(i2t) steps_to_lnB/2"]
    lines += [f"{r.context:7d} {r.t2i.recalls[k]:9.4f} {r.i2t.recalls[k]:9.4f} "
              f"{'never' if r.steps_to_target is None else r.steps_to_target:>14}"
              for r in runs]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    write_csv(out / "timings.csv", ["context", "steps", "train_s", "step_ms_p50",
                                    "step_ms_p95", "worker_peak_rss_mb"],
              map(_timings_row, runs))
    print("\n".join(lines))
    print(f"-> {out}")
    return 0


COMMANDS = {
    "tokenize-stats": cmd_tokenize_stats,
    "make-synthetic": cmd_make_synthetic,
    "train": cmd_train,
    "eval-retrieval": cmd_eval_retrieval,
    "eval-zeroshot": cmd_eval_zeroshot,
    "longcap": cmd_longcap,
    "build-benchmark": cmd_build_benchmark,
    "ablate": cmd_ablate,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.command, args)
        return COMMANDS[args.command](cfg)
    except (LongCtxError, OSError) as exc:
        print(f"longctx {args.command}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
