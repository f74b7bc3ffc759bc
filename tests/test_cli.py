import contextlib
import csv
import gc
import json
import multiprocessing
import os
import platform
import re
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    CountedCorpus,
    FAILING_CONTEXT,
    KILLED_CONTEXT,
    SLEEPING_CONTEXT,
    ablation_run_failing_at_context,
    blas_thread_vars_seen,
    context_and_start_time,
    fixture_caption_records,
    profile,
    run_ablation,
    save_shards,
    write_zero_shot_records,
)
from longctx import cli
from longctx.cli import run
from longctx.data import SyntheticSpec, generate_synthetic, load_corpus, save_corpus
from longctx.encoders import (
    ImageEncoderConfig,
    TextEncoderConfig,
    init_params,
    save_checkpoint,
)
from longctx.errors import DataError, UsageError
from longctx.evaluation import recall_pair
from longctx.longcap import write_caption_records
from longctx.tokenizer import (
    corpus_token_stats,
    format_waste_report,
    load_vocab,
    save_vocab,
    train_bpe,
)
from longctx.trainer import TrainConfig, train

SRC = Path(cli.__file__).parents[1]


@pytest.fixture(scope="module")
def small_corpus_file(tmp_path_factory):
    spec = SyntheticSpec(num_classes=3, samples_per_class=10, image_dim=8,
                         distractor_prefix_tokens=4, class_token_position=6, seed=2)
    corpus, labels = generate_synthetic(spec)
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    save_corpus(corpus, path)
    return path


def read_config(out_dir):
    text = (Path(out_dir) / "config.txt").read_text()
    return dict(line.split("=", 1) for line in text.splitlines())


def test_tokenize_stats_matches_library_recount(tmp_path, small_corpus_file):
    out = tmp_path / "stats"
    code = run(["tokenize-stats", "--corpus", str(small_corpus_file),
                "--cutoff", "5", "--vocab-size", "300", "--out", str(out)])
    assert code == 0
    report = (out / "report.txt").read_text()
    fields = dict(line.split("=", 1) for line in report.splitlines())
    from longctx.data import load_corpus
    from longctx.tokenizer import content_ids, train_bpe
    captions = load_corpus(small_corpus_file).captions()
    vocab = train_bpe(captions, 300)
    lengths = [len(content_ids(vocab, c)) for c in captions]
    assert int(fields["total_tokens"]) == sum(lengths)
    assert int(fields["wasted_tokens"]) == sum(max(0, n - 5) for n in lengths)
    cfg = read_config(out)
    assert cfg["command"] == "tokenize-stats"
    assert "version" in cfg


def test_tokenize_stats_reports_a_short_vocabulary(tmp_path, small_corpus_file, capsys):
    # the 30 small captions run out of pairs long before 8192 ids
    out = tmp_path / "short"
    assert run(["tokenize-stats", "--corpus", str(small_corpus_file),
                "--vocab-size", "8192", "--out", str(out)]) == 0
    trained = train_bpe(load_corpus(small_corpus_file).captions(), 8192).size
    assert trained < 8192
    fields = dict(line.split("=", 1) for line in (out / "report.txt").read_text().splitlines())
    assert fields["trained_vocab_size"] == str(trained)
    assert fields["requested_vocab_size"] == "8192"
    assert f"trained {trained} of the 8192 ids" in capsys.readouterr().out
    # a vocabulary that fills writes nothing extra
    full = tmp_path / "full"
    assert run(["tokenize-stats", "--corpus", str(small_corpus_file),
                "--vocab-size", "300", "--out", str(full)]) == 0
    assert "vocab_size" not in (full / "report.txt").read_text()
    assert "ids asked for" not in capsys.readouterr().out


def test_tokenize_stats_captions_split_on_newlines_only(tmp_path):
    # a raw U+2028 or U+0085 stays inside its caption; CRLF lines still read
    captions = ["one two\u2028three four", "five\u0085six seven", "eight nine"]
    path = tmp_path / "captions.txt"
    path.write_bytes((captions[0] + "\r\n" + captions[1] + "\n\n" + captions[2]).encode())
    out = tmp_path / "stats"
    assert run(["tokenize-stats", "--captions", str(path), "--vocab-size", "300",
                "--out", str(out)]) == 0
    expected = corpus_token_stats(train_bpe(captions, 300), captions, 77)
    assert (out / "report.txt").read_text().startswith(format_waste_report(expected))


def test_tokenize_stats_reads_shards_from_a_directory_or_a_tar_file(tmp_path,
                                                                    small_corpus_file, capsys):
    corpus = load_corpus(small_corpus_file)
    save_shards(corpus, tmp_path / "shards", shard_size=7)
    save_shards(corpus, tmp_path / "one")
    inputs = {"records": small_corpus_file, "directory": tmp_path / "shards",
              "tar": tmp_path / "one" / "shard-00000.tar"}
    for name, path in inputs.items():
        assert run(["tokenize-stats", "--corpus", str(path), "--vocab-size", "300",
                    "--out", str(tmp_path / name)]) == 0
    summaries = {name: (tmp_path / name / "summary.csv").read_text() for name in inputs}
    assert summaries["directory"] == summaries["tar"] == summaries["records"]
    # a directory without shards is still one diagnostic line
    (tmp_path / "empty").mkdir()
    capsys.readouterr()
    assert run(["tokenize-stats", "--corpus", str(tmp_path / "empty"),
                "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == f"longctx tokenize-stats: error: no .tar shards under {tmp_path / 'empty'}\n"


def test_tokenize_stats_requires_input(tmp_path, capsys):
    code = run(["tokenize-stats", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "--corpus" in capsys.readouterr().err


def test_make_synthetic_writes_corpus_and_labels(tmp_path):
    out = tmp_path / "syn"
    code = run(["make-synthetic", "--classes", "2", "--per-class", "3",
                "--image-dim", "8", "--prefix-tokens", "4",
                "--class-token-position", "5", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = (out / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 6
    labels = (out / "labels.csv").read_text().splitlines()
    assert labels[0] == "id,class_word"
    assert len(labels) == 7


def test_train_eval_round_trip(tmp_path, small_corpus_file):
    out = tmp_path / "run"
    code = run(["train", "--corpus", str(small_corpus_file), "--context-length", "16",
                "--batch-size", "10", "--max-epochs", "2", "--vocab-size", "300",
                "--embed-dim", "16", "--num-layers", "1", "--num-heads", "2",
                "--output-dim", "8", "--hidden-dim", "16",
                "--learning-rate", "0.003", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert (out / "checkpoint.npz").exists()
    assert (out / "losscurve.csv").read_text().startswith("step,loss,lr,seconds")

    eval_out = tmp_path / "eval"
    code = run(["eval-retrieval", "--checkpoint", str(out / "checkpoint.npz"),
                "--vocab", str(out / "vocab"), "--corpus", str(small_corpus_file),
                "--ks", "1,5,10", "--out", str(eval_out)])
    assert code == 0
    rows = (eval_out / "retrieval.csv").read_text().splitlines()
    assert rows[0] == "benchmark,direction,K,recall"
    assert len(rows) == 1 + 2 * 3

    # zero-shot over the class words
    from longctx.data import load_corpus
    corpus = load_corpus(small_corpus_file)
    options = ("axolotl", "begonia", "catamaran")
    task_path = tmp_path / "task.jsonl"
    with task_path.open("w") as fh:
        for rec in corpus.records[:6]:
            label = rec.caption.split()[-1]
            fh.write(json.dumps({"image": rec.id, "options": list(options),
                                 "correct": options.index(label)}) + "\n")
    zs_out = tmp_path / "zs"
    code = run(["eval-zeroshot", "--checkpoint", str(out / "checkpoint.npz"),
                "--vocab", str(out / "vocab"), "--corpus", str(small_corpus_file),
                "--task", str(task_path), "--permute-seed", "5", "--out", str(zs_out)])
    assert code == 0
    summary = (zs_out / "summary.txt").read_text()
    assert summary.startswith("accuracy=")


def test_longcap_command(tmp_path):
    records_path = tmp_path / "records.jsonl"
    write_caption_records(fixture_caption_records(), records_path)
    out = tmp_path / "lc"
    code = run(["longcap", "--records", str(records_path), "--backend", "mock",
                "--workers", "2", "--out", str(out)])
    assert code == 0
    lines = (out / "longcap.jsonl").read_text().splitlines()
    assert len(lines) == 10
    assert all(json.loads(ln)["status"] == "done" for ln in lines)
    assert (out / "journal.jsonl").exists()


def test_longcap_resume_refuses_a_journal_id_that_is_not_a_string(tmp_path, capsys):
    # a numeric id used to load, then end the run in a traceback from sorting ids
    records_path = tmp_path / "records.jsonl"
    write_caption_records(fixture_caption_records()[:2], records_path)
    journal = tmp_path / "journal.jsonl"
    journal.write_text(json.dumps({"id": 5, "status": "done", "caption": "x"}) + "\n")
    capsys.readouterr()
    assert run(["longcap", "--records", str(records_path), "--backend", "mock",
                "--resume", str(journal), "--out", str(tmp_path / "lc")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("longctx longcap: error: ") and err.count("\n") == 1, err
    assert f"{journal} line 1" in err and "id must be a JSON string" in err


def test_longcap_resume_returns_only_the_records_given(tmp_path):
    # the journal's results for ids not in the records file were returned too
    records = fixture_caption_records()[:5]
    journal = tmp_path / "journal.jsonl"
    for n in (5, 2):
        records_path = tmp_path / f"records{n}.jsonl"
        write_caption_records(records[:n], records_path)
        assert run(["longcap", "--records", str(records_path), "--backend", "mock",
                    "--resume", str(journal), "--out", str(tmp_path / f"lc{n}")]) == 0
    out = tmp_path / "lc2"
    rows = [json.loads(ln) for ln in (out / "longcap.jsonl").read_text().splitlines()]
    assert [row["id"] for row in rows] == [r.id for r in records[:2]]
    assert (out / "summary.txt").read_text().startswith("records=2\n")
    assert len(journal.read_text().splitlines()) == 5


@pytest.mark.parametrize("command", cli.SCHEMAS)
def test_help_shows_no_empty_default(command, capsys):
    with pytest.raises(SystemExit):
        run([command, "--help"])
    # argparse may wrap "(default: )" across lines
    assert "(default: )" not in " ".join(capsys.readouterr().out.split())


def test_build_benchmark_command(tmp_path):
    articles = tmp_path / "articles.jsonl"
    rows = [
        {"article_id": "a1", "date": "2025-02-01", "figures": [
            {"figure_id": "f0", "image": [0.1, 0.2], "caption": "cap a",
             "inline_refs": ["ref"]}]},
        {"article_id": "a2", "date": "2024-01-01", "figures": [
            {"figure_id": "f0", "image": [0.3, 0.4], "caption": "cap b"}]},
        {"article_id": "a3", "date": "2025-03-01", "figures": []},
    ]
    articles.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = tmp_path / "bench"
    code = run(["build-benchmark", "--articles", str(articles),
                "--min-date", "2025-01-01", "--seed", "4", "--out", str(out)])
    assert code == 0
    lines = (out / "benchmark.jsonl").read_text().splitlines()
    assert len(lines) == 1  # a2 too old, a3 figureless
    manifest = (out / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "id,article_id,caption_words"


def test_ablate_deterministic(tmp_path, small_corpus_file):
    args = ["ablate", "--corpus", str(small_corpus_file), "--contexts", "8,16",
            "--batch-size", "10", "--max-epochs", "1", "--vocab-size", "300",
            "--embed-dim", "16", "--num-layers", "1", "--num-heads", "2",
            "--output-dim", "8", "--hidden-dim", "16", "--seed", "5"]
    out1, out2 = tmp_path / "ab1", tmp_path / "ab2"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert (out1 / "ablation.csv").read_bytes() == (out2 / "ablation.csv").read_bytes()
    assert (out1 / "convergence.csv").read_bytes() == (out2 / "convergence.csv").read_bytes()
    header = (out1 / "ablation.csv").read_text().splitlines()[0]
    assert header == "context,direction,K,recall"
    summary = (out1 / "summary.txt").read_text().splitlines()
    assert summary[0].split() == ["context", "R@1(t2i)", "R@1(i2t)", "steps_to_lnB/2"]
    assert [row.split()[0] for row in summary[1:]] == ["8", "16"]


TINY_ABLATE = ["--batch-size", "10", "--max-epochs", "1", "--vocab-size", "300",
               "--embed-dim", "16", "--num-layers", "1", "--num-heads", "2",
               "--output-dim", "8", "--hidden-dim", "16", "--seed", "5"]


def test_ablate_writes_timings_in_contexts_order(tmp_path, small_corpus_file):
    out = tmp_path / "ab"
    assert run(["ablate", "--corpus", str(small_corpus_file), "--contexts", "16,8,12",
                *TINY_ABLATE, "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "timings.csv").read_text().splitlines()]
    assert rows[0] == ["context", "steps", "train_s", "step_ms_p50", "step_ms_p95",
                       "worker_peak_rss_mb"]
    assert [row[0] for row in rows[1:]] == ["16", "8", "12"]
    assert all(row[1] == "3" and float(row[2]) > 0 and float(row[5]) > 0 for row in rows[1:])
    assert multiprocessing.active_children() == []


def test_ablation_pool_equals_an_in_process_loop(small_corpus_file):
    cfg = profile("ablate", batch_size=10, max_epochs=2, vocab_size=300, embed_dim=16,
                  num_layers=1, num_heads=2, output_dim=8, hidden_dim=16, seed=5,
                  dtype="float32")
    corpus = load_corpus(small_corpus_file)
    vocab = train_bpe(corpus.captions(), cfg["vocab_size"])
    contexts, ks = [16, 8, 12], (1, 5)
    pooled = run_ablation(cfg, corpus, vocab, contexts, ks)
    assert multiprocessing.active_children() == []
    looped = [cli._ablation_run(cfg, corpus, vocab, c, ks) for c in contexts]
    assert [r.context for r in pooled] == contexts
    for p, q in zip(pooled, looped):
        assert [(x.step, x.loss, x.lr) for x in p.curve] == [(x.step, x.loss, x.lr)
                                                             for x in q.curve]
        assert p.steps_to_target == q.steps_to_target
        for a, b in ((p.t2i, q.t2i), (p.i2t, q.i2t)):
            assert a.recalls == b.recalls and a.capped_ks == b.capped_ks
            np.testing.assert_array_equal(a.ranks, b.ranks)


def test_ablate_pickles_its_corpus_once_before_bpe(tmp_path, small_corpus_file, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})  # three workers
    monkeypatch.setattr(cli, "load_corpus", lambda path: CountedCorpus(load_corpus(path).records))
    at_bpe_start = []

    def recorded_train_bpe(*args):
        at_bpe_start.append(CountedCorpus.reductions)
        return train_bpe(*args)

    monkeypatch.setattr(cli, "train_bpe", recorded_train_bpe)
    monkeypatch.setattr(CountedCorpus, "reductions", 0)
    assert run(["ablate", "--corpus", str(small_corpus_file), "--contexts", "16,8,12",
                *TINY_ABLATE, "--out", str(tmp_path / "ab")]) == 0
    assert at_bpe_start == [1] and CountedCorpus.reductions == 1
    assert multiprocessing.active_children() == []


def test_workers_load_numpy_at_one_blas_thread_and_the_parent_keeps_its_env(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setattr(cli, "_ablation_run", blas_thread_vars_seen)
    assert run_ablation({}, None, None, [1, 2], ks=()) == [["1", "1", "1"]] * 2
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2" and "MKL_NUM_THREADS" not in os.environ
    # and when a worker's run fails
    monkeypatch.setattr(cli, "_ablation_run", ablation_run_failing_at_context)
    with pytest.raises(UsageError, match="failed in its worker"):
        run_ablation({}, None, None, [FAILING_CONTEXT], ks=())
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2" and "MKL_NUM_THREADS" not in os.environ
    assert multiprocessing.active_children() == []


def test_a_free_worker_gets_the_longest_context_left(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cli, "_ablation_run", context_and_start_time)
    runs = run_ablation({}, None, None, [16, 8, 12], ks=())
    assert [context for context, _ in runs] == [16, 8, 12]
    assert [context for context, _ in sorted(runs, key=lambda run: run[1])] == [16, 12, 8]


def test_ablate_error_in_a_worker_is_one_line(tmp_path, small_corpus_file, capsys,
                                             monkeypatch):
    # every bad value is refused before a job is sent, so a stand-in run raises
    monkeypatch.setattr(cli, "_ablation_run", ablation_run_failing_at_context)
    capsys.readouterr()
    assert run(["ablate", "--corpus", str(small_corpus_file),
                "--contexts", f"{FAILING_CONTEXT},16",
                *TINY_ABLATE, "--out", str(tmp_path / "ab")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("longctx ablate: error: ") and err.count("\n") == 1, err
    assert f"context {FAILING_CONTEXT} failed in its worker" in err
    assert multiprocessing.active_children() == []


def test_ablate_refusing_its_corpus_after_the_workers_start_leaves_no_child(
        tmp_path, small_corpus_file, capsys, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(small_corpus_file.read_text() + "{not json\n")
    started = []
    start_workers = cli.ablation_workers

    @contextlib.contextmanager
    def recorded(jobs):
        with start_workers(jobs) as workers:
            started.extend(workers.values())
            yield workers

    monkeypatch.setattr(cli, "ablation_workers", recorded)
    capsys.readouterr()
    assert run(["ablate", "--corpus", str(corpus), "--contexts", "8,16",
                *TINY_ABLATE, "--out", str(tmp_path / "ab")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("longctx ablate: error: ") and err.count("\n") == 1, err
    assert "line 31" in err, err
    assert started and not any(worker.is_alive() for worker in started)
    assert multiprocessing.active_children() == []


def _child_env(*dirs: Path) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, dirs)))


def test_a_killed_worker_is_one_line_and_leaves_no_child(tmp_path, small_corpus_file):
    # a child interpreter, so that a wait that never ends fails at the timeout
    args = ["ablate", "--corpus", str(small_corpus_file), "--contexts", f"16,{KILLED_CONTEXT}",
            *TINY_ABLATE, "--out", str(tmp_path / "ab")]
    script = ("import multiprocessing, helpers; from longctx import cli; "
              "cli._ablation_run = helpers.ablation_run_killed_at_context; "
              f"code = cli.run({args!r}); print(code, multiprocessing.active_children())")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(SRC, Path(__file__).parent), timeout=60)
    assert proc.stdout.split() == ["1", "[]"], proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert re.fullmatch(rf"longctx ablate: error: an ablation worker exited with code -9; "
                        rf"contexts (16,)?{KILLED_CONTEXT} did not finish\n", proc.stderr)


def test_cli_and_longcap_load_only_what_a_command_runs():
    heavy = ("requests", "xml.sax", "concurrent.futures",
             "longctx.trainer", "longctx.encoders", "longctx.numerics")
    script = ("import sys, longctx.cli, longctx.longcap; "
              "backend = longctx.longcap.make_backend('http://backend.test/generate'); "
              f"print(type(backend).__name__, *[m for m in {heavy!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(SRC), timeout=60, check=True)
    assert proc.stdout.split() == ["HttpBackend"]


def _running(pid: int) -> bool:
    # a zombie has exited; it only waits for whoever adopted it to reap it
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status


def _worker_exits_when_its_parent_is_killed(watched: int) -> bool:
    """Two workers: the run for 1 returns at once and leaves its worker idle,
    the other sleeps a minute.  Kill their parent; is the worker given
    ``watched`` gone within 10 s?  Any worker left is killed on the way out."""
    script = ("import os, helpers; from longctx import cli; "
              "os.sched_getaffinity = lambda pid: {0, 1}; "
              "cli._ablation_run = helpers.context_and_pid_printed; "
              f"helpers.run_ablation({{}}, None, None, [1, {SLEEPING_CONTEXT}], ks=())")
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            env=_child_env(SRC, Path(__file__).parent))
    pids = {}
    try:
        pids = dict(map(int, proc.stdout.readline().split()) for _ in range(2))
        assert sorted(pids) == [1, SLEEPING_CONTEXT] and all(map(_running, pids.values()))
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10.0
        while _running(pids[watched]) and time.monotonic() < deadline:
            time.sleep(0.1)
        return not _running(pids[watched])
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        for pid in pids.values():
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def test_idle_workers_exit_when_their_parent_is_killed():
    assert _worker_exits_when_its_parent_is_killed(1)


def test_busy_workers_exit_when_their_parent_is_killed():
    # the sleeping run does not end on its own for a minute
    assert _worker_exits_when_its_parent_is_killed(SLEEPING_CONTEXT)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap thresholds")
def test_a_loaded_model_encodes_its_batches_on_pages_it_keeps(tmp_path):
    # long captions at context 512: each batch frees more than glibc's
    # default thresholds let the heap keep
    corpus, _ = generate_synthetic(SyntheticSpec(num_classes=2, samples_per_class=160,
                                                 image_dim=8, seed=3))
    vocab = train_bpe(corpus.captions()[:40], 300)
    text_cfg = TextEncoderConfig(context_length=512, vocab_size=vocab.size, embed_dim=16,
                                 num_layers=1, num_heads=2, output_dim=8)
    img_cfg = ImageEncoderConfig(input_dim=8, hidden_dim=16, output_dim=8)
    save_vocab(vocab, tmp_path / "vocab")
    save_checkpoint(tmp_path / "ckpt.npz", text_cfg, img_cfg,
                    init_params(text_cfg, img_cfg, seed=0), 2.0, vocab=vocab)
    (tmp_path / "captions.json").write_text(json.dumps(corpus.captions()))
    faults = {}
    for child in ("kept", "control"):
        # a child interpreter: the test process's heap has its own history
        proc = subprocess.run([sys.executable, "-c", PAGE_FAULT_CHILD, child,
                               str(tmp_path / "ckpt.npz"), str(tmp_path / "vocab"),
                               str(tmp_path / "captions.json")],
                              capture_output=True, text=True, env=_child_env(SRC),
                              timeout=120, check=True)
        faults[child] = int(proc.stdout)
    # five batches: the control faults each batch's arrays in again, thousands
    # of faults a batch, whatever the machine's own fault count
    assert 10 * faults["kept"] < faults["control"], faults


# the page faults of a second pass of a loaded model over the same captions;
# the "control" child loads it on glibc's default heap thresholds
PAGE_FAULT_CHILD = """
import json, resource, sys
from longctx import cli
child, checkpoint, vocab, captions = sys.argv[1:]
if child == "control":
    cli._keep_freed_heap = lambda: None
model = cli._load_model({"checkpoint": checkpoint, "vocab": vocab})
with open(captions) as fh:
    texts = json.load(fh)
model.encode_texts(texts)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
model.encode_texts(texts)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
"""


def test_eval_retrieval_keeps_checkpoint_dtype(tmp_path, small_corpus_file, monkeypatch):
    corpus = load_corpus(small_corpus_file)
    vocab = train_bpe(corpus.captions(), 300)
    text_cfg = TextEncoderConfig(context_length=16, vocab_size=vocab.size, embed_dim=16,
                                 num_layers=1, num_heads=2, output_dim=8)
    img_cfg = ImageEncoderConfig(input_dim=corpus.image_dim, hidden_dim=16, output_dim=8)
    result = train(TrainConfig(context_length=16, batch_size=10, max_epochs=1,
                               dtype="float32"), corpus, text_cfg, img_cfg, vocab)
    save_vocab(vocab, tmp_path / "vocab")
    save_checkpoint(tmp_path / "ckpt.npz", text_cfg, img_cfg,
                    result.model.params, result.model.log_scale)
    seen = {}

    def keep_recall(z_img, z_txt, **kw):
        seen["z_txt"] = z_txt
        return recall_pair(z_img, z_txt, **kw)

    monkeypatch.setattr(cli, "recall_pair", keep_recall)
    assert run(["eval-retrieval", "--checkpoint", str(tmp_path / "ckpt.npz"),
                "--vocab", str(tmp_path / "vocab"), "--corpus", str(small_corpus_file),
                "--out", str(tmp_path / "ev")]) == 0
    expected = result.model.encode_texts(corpus.captions())
    assert seen["z_txt"].dtype == np.float32
    np.testing.assert_array_equal(seen["z_txt"], expected)


def test_config_file_and_env_precedence(tmp_path, small_corpus_file, monkeypatch):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("cutoff = 7\nvocab_size = 300\n")
    monkeypatch.setenv("LONGCTX_CUTOFF", "9")
    out = tmp_path / "s1"
    code = run(["tokenize-stats", "--corpus", str(small_corpus_file),
                "--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    assert read_config(out)["cutoff"] == "9"  # env beats file
    out2 = tmp_path / "s2"
    code = run(["tokenize-stats", "--corpus", str(small_corpus_file),
                "--config", str(cfg_file), "--cutoff", "11", "--out", str(out2)])
    assert code == 0
    assert read_config(out2)["cutoff"] == "11"  # flag beats env


def test_unknown_config_key_rejected(tmp_path, small_corpus_file, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("no_such_knob = 1\n")
    code = run(["tokenize-stats", "--corpus", str(small_corpus_file),
                "--config", str(cfg_file), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "no_such_knob" in capsys.readouterr().err


def test_missing_file_is_one_line_diagnostic(tmp_path, capsys):
    code = run(["train", "--corpus", str(tmp_path / "nope.jsonl"),
                "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "error" in err


def test_bad_env_value_is_one_line_diagnostic(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LONGCTX_SEED", "abc")
    assert run(["make-synthetic", "--out", str(tmp_path / "syn")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "LONGCTX_SEED" in err and "'abc'" in err


def test_bad_config_file_value_is_one_line_diagnostic(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("seed = abc\n")
    assert run(["make-synthetic", "--config", str(cfg_file), "--out", str(tmp_path / "syn")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(cfg_file) in err and "seed" in err


def test_corrupt_vocab_is_one_line_diagnostic(tmp_path, small_corpus_file, capsys):
    save_vocab(train_bpe(load_corpus(small_corpus_file).captions(), 300), tmp_path / "vocab")
    tokens = tmp_path / "vocab" / "tokens.txt"
    lines = tokens.read_text().splitlines()
    lines[5] = "1 zz"
    tokens.write_text("\n".join(lines) + "\n")
    code = run(["tokenize-stats", "--corpus", str(small_corpus_file),
                "--vocab", str(tmp_path / "vocab"), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{tokens} line 6" in err


def test_checkpoint_and_vocab_size_must_agree(tmp_path, small_corpus_file, capsys):
    captions = load_corpus(small_corpus_file).captions()
    save_vocab(train_bpe(captions, 287), tmp_path / "small")
    text_cfg = TextEncoderConfig(context_length=16, vocab_size=train_bpe(captions, 300).size,
                                 embed_dim=16, num_layers=1, num_heads=2, output_dim=8)
    img_cfg = ImageEncoderConfig(input_dim=8, hidden_dim=16, output_dim=8)
    ckpt = tmp_path / "ckpt.npz"
    save_checkpoint(ckpt, text_cfg, img_cfg, init_params(text_cfg, img_cfg, seed=0), 2.0)
    code = run(["eval-retrieval", "--checkpoint", str(ckpt), "--vocab", str(tmp_path / "small"),
                "--corpus", str(small_corpus_file), "--out", str(tmp_path / "ev")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(ckpt) in err and str(tmp_path / "small") in err
    assert "has 287 ids" in err and "trained on 300" in err


def test_checkpoint_and_vocab_fingerprint_must_agree(tmp_path, small_corpus_file, capsys):
    # same size, different merges: only the header fingerprint tells them apart
    out = tmp_path / "run"
    assert run(["train", "--corpus", str(small_corpus_file), "--context-length", "16",
                "--batch-size", "10", "--max-epochs", "1", "--vocab-size", "300",
                "--embed-dim", "16", "--num-layers", "1", "--num-heads", "2",
                "--output-dim", "8", "--hidden-dim", "16", "--out", str(out)]) == 0
    other = train_bpe([r.caption + " " + r.abstract for r in fixture_caption_records()], 300)
    assert other.size == 300 == load_vocab(out / "vocab").size
    save_vocab(other, tmp_path / "other")
    ckpt = out / "checkpoint.npz"
    code = run(["eval-retrieval", "--checkpoint", str(ckpt), "--vocab", str(tmp_path / "other"),
                "--corpus", str(small_corpus_file), "--out", str(tmp_path / "ev")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(ckpt) in err and str(tmp_path / "other") in err and "sha256" in err


@pytest.mark.parametrize("backend, args, env, expected", [
    ("mock", [], {}, 1),
    ("http://localhost:9/generate", [], {}, 4),
    ("mock", ["--workers", "3"], {}, 3),
    ("http://localhost:9/generate", [], {"LONGCTX_WORKERS": "2"}, 2),
])
def test_longcap_workers_default_follows_backend(tmp_path, monkeypatch, backend, args,
                                                 env, expected):
    records_path = tmp_path / "records.jsonl"
    write_caption_records(fixture_caption_records(), records_path)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    seen = []

    def stop(records, backend, journal_path, max_workers):
        seen.append(max_workers)
        raise DataError("stopped before any backend call")

    monkeypatch.setattr(cli, "run_pipeline", stop)
    out = tmp_path / "lc"
    assert run(["longcap", "--records", str(records_path), "--backend", backend,
                *args, "--out", str(out)]) == 1
    assert seen == [expected]
    assert read_config(out)["workers"] == str(expected)


# -- every input of every command: a bad file is one diagnostic line -----------------

# the inputs each command reads (tokenize-stats reads --corpus or --captions)
COMMAND_INPUTS = [
    ("tokenize-stats", ("corpus", "vocab", "config")),
    ("tokenize-stats", ("captions", "vocab", "config")),
    ("make-synthetic", ("config",)),
    ("train", ("corpus", "config")),
    ("eval-retrieval", ("checkpoint", "vocab", "corpus", "config")),
    ("eval-zeroshot", ("checkpoint", "vocab", "corpus", "task", "config")),
    ("longcap", ("records", "resume", "config")),
    ("build-benchmark", ("articles", "config")),
    ("ablate", ("corpus", "config")),
]
# every input holds non-UTF-8 bytes once; a checkpoint or corpus is also cut in
# half, a corpus or articles file gets a NaN image feature on its line 1, a
# record file a lone surrogate escape in a string on its line 1, and a
# checkpoint loses a parameter or gets a NaN in one
DAMAGED = {"half-length": ("checkpoint", "corpus"), "non-finite": ("corpus", "articles"),
           "lone-surrogate": ("corpus", "records", "articles", "task", "resume"),
           "missing-param": ("checkpoint",), "nan-param": ("checkpoint",)}
# the parameter each checkpoint damage touches
DAMAGED_PARAM = {"missing-param": "txt.proj", "nan-param": "img.l0.w"}
SWEEP = [(command, inputs, bad, damage)
         for command, inputs in COMMAND_INPUTS for bad in inputs
         for damage in ("non-utf8", *DAMAGED)
         if damage == "non-utf8" or bad in DAMAGED[damage]]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid file per input flag, from a tiny make-synthetic and a 1-epoch train."""
    root = tmp_path_factory.mktemp("inputs")
    assert run(["make-synthetic", "--classes", "2", "--per-class", "10", "--image-dim", "8",
                "--prefix-tokens", "4", "--class-token-position", "5",
                "--out", str(root / "syn")]) == 0
    corpus = root / "syn" / "corpus.jsonl"
    assert run(["train", "--corpus", str(corpus), "--context-length", "16",
                "--batch-size", "5", "--max-epochs", "1", "--vocab-size", "300",
                "--embed-dim", "16", "--num-layers", "1", "--num-heads", "2",
                "--output-dim", "8", "--hidden-dim", "16", "--out", str(root / "run")]) == 0
    records = fixture_caption_records()
    write_caption_records(records, root / "records.jsonl")
    (root / "captions.txt").write_text("\n".join(r.caption for r in records) + "\n")
    (root / "articles.jsonl").write_text(json.dumps(
        {"article_id": "a1", "figures": [
            {"figure_id": "f0", "image": [0.1, 0.2], "caption": "cap"}]}) + "\n")
    write_zero_shot_records([(rec.id, ("alpha", "beta"), 0)
                             for rec in load_corpus(corpus).records[:4]],
                            root / "task.jsonl")
    (root / "config.cfg").write_text("# the defaults\n")
    return {"corpus": corpus, "vocab": root / "run" / "vocab",
            "checkpoint": root / "run" / "checkpoint.npz",
            "records": root / "records.jsonl", "captions": root / "captions.txt",
            "articles": root / "articles.jsonl", "task": root / "task.jsonl",
            "config": root / "config.cfg"}


@pytest.mark.parametrize("command, inputs, bad, damage", SWEEP,
                         ids=[f"{c}-{b}-{d}" + ("-via-captions" if "captions" in i else "")
                              for c, i, b, d in SWEEP])
def test_bad_input_file_is_one_line_diagnostic(tmp_path, capsys, valid_inputs,
                                               command, inputs, bad, damage):
    paths = dict(valid_inputs, resume=tmp_path / "journal.jsonl")
    if damage == "half-length":
        raw = paths[bad].read_bytes()
        paths[bad] = tmp_path / paths[bad].name
        paths[bad].write_bytes(raw[:len(raw) // 2])
    elif damage in ("non-finite", "lone-surrogate"):
        # the journal is the one input written here: a run appends to it
        first, *rest = (['{"id": "r1", "status": "done", "caption": "a cell"}']
                        if bad == "resume" else paths[bad].read_text().splitlines())
        obj = json.loads(first)
        target = obj["figures"][0] if bad == "articles" else obj
        if damage == "non-finite":
            target["image"][0] = float("nan")
        elif bad == "task":
            target["options"][0] = "a \ud800 cell"
        else:
            target["caption"] = "a \ud800 cell"
        paths[bad] = tmp_path / paths[bad].name
        paths[bad].write_text("\n".join([json.dumps(obj), *rest]) + "\n")
    elif damage in DAMAGED_PARAM:
        with np.load(paths[bad]) as data:
            arrays = {k: data[k] for k in data.files}
        name = f"param/{DAMAGED_PARAM[damage]}"
        if damage == "missing-param":
            del arrays[name]
        else:
            arrays[name][0, 0] = np.nan
        paths[bad] = tmp_path / paths[bad].name
        np.savez(paths[bad], **arrays)
    elif bad == "vocab":
        paths[bad] = tmp_path / "vocab"
        paths[bad].mkdir()
        for name in ("tokens.txt", "merges.txt"):
            (paths[bad] / name).write_bytes(b"\xff\xfe\n")
    else:
        paths[bad] = tmp_path / f"bad-{bad}"
        paths[bad].write_bytes(b"\xff\xfe\n")
    args = [command, "--out", str(tmp_path / "out")]
    for key in inputs:
        args += [f"--{key}", str(paths[key])]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run(args) == 1
        gc.collect()
    err = capsys.readouterr().err
    assert err.startswith(f"longctx {command}: error: ") and err.count("\n") == 1, err
    assert str(paths[bad]) in err
    if damage == "non-finite":
        assert "line 1" in err and "finite" in err
    if damage == "lone-surrogate":
        assert "line 1" in err and "surrogate" in err
    if damage in DAMAGED_PARAM:
        assert f"parameter {DAMAGED_PARAM[damage]}" in err
    # every file the command opened is closed on the error path too
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


# -- bad argument values: one diagnostic line, not a traceback -----------------------

TINY_TRAIN = ["--context-length", "16", "--batch-size", "5", "--max-epochs", "1",
              "--vocab-size", "300", "--embed-dim", "16", "--num-layers", "1",
              "--num-heads", "2", "--output-dim", "8", "--hidden-dim", "16"]
MODEL = ["--checkpoint", "{checkpoint}", "--vocab", "{vocab}"]
# (command, arguments, what the one line names); a later flag wins over TINY_TRAIN's
BAD_ARGUMENTS = [
    ("train", ["--corpus", "{corpus}", *TINY_TRAIN, "--dtype", "foo"], "dtype"),
    ("ablate", ["--corpus", "{corpus}", *TINY_TRAIN[2:], "--contexts", "16", "--dtype", "foo"],
     "dtype"),
    # 2 leaves no room for BOS and EOS
    ("ablate", ["--corpus", "{corpus}", *TINY_TRAIN[2:], "--contexts", "16,2"], "context_length"),
    ("train", ["--corpus", "{corpus}", *TINY_TRAIN, "--num-heads", "0"], "dims must be positive"),
    ("train", ["--corpus", "{corpus}", *TINY_TRAIN, "--num-layers", "0"],
     "dims must be positive"),
    ("train", ["--corpus", "{corpus}", *TINY_TRAIN, "--embed-dim", "0"],
     "dims must be positive"),
    ("eval-retrieval", [*MODEL, "--corpus", "{corpus}", "--block-size", "0"], "block_size"),
    ("eval-retrieval", [*MODEL, "--corpus", "{empty}"], "{empty}"),
    ("eval-zeroshot", [*MODEL, "--corpus", "{corpus}", "--task", "{empty}"], "{empty}"),
    ("tokenize-stats", ["--corpus", "{corpus}", "--cutoff", "-5"], "cutoff"),
    # --captions was ignored when --corpus was given too
    ("tokenize-stats", ["--corpus", "{corpus}", "--captions", "{captions}"],
     "exactly one of --corpus and --captions"),
    ("longcap", ["--records", "{records}", "--workers", "-3"], "workers"),
    # a NaN rate would surface as a zero-norm embedding; 0 epochs saved an untrained model
    ("train", ["--corpus", "{corpus}", *TINY_TRAIN, "--learning-rate", "nan"], "learning_rate"),
    ("ablate", ["--corpus", "{corpus}", *TINY_TRAIN[2:], "--contexts", "16",
                "--learning-rate", "nan"], "learning_rate"),
    ("train", ["--corpus", "{corpus}", *TINY_TRAIN, "--grad-clip-norm", "inf"],
     "grad_clip_norm"),
    ("train", ["--corpus", "{corpus}", *TINY_TRAIN, "--max-epochs", "0"], "max_epochs"),
    ("train", ["--corpus", "{corpus}", *TINY_TRAIN, "--weight-decay", "-1"], "weight_decay"),
    ("train", ["--corpus", "{corpus}", *TINY_TRAIN, "--warmup-steps", "-3"], "warmup_steps"),
    # a NaN noise scale wrote a corpus that every reader refuses
    ("make-synthetic", ["--noise-std", "nan"], "noise_std"),
    ("make-synthetic", ["--noise-std", "-1"], "noise_std"),
    ("make-synthetic", ["--image-dim", "0"], "image_dim"),
    # a repeated context trained twice and wrote two row sets under one key
    ("ablate", ["--corpus", "{corpus}", *TINY_TRAIN[2:], "--contexts", "16,8,16"], "distinct"),
    ("ablate", ["--corpus", "{corpus}", *TINY_TRAIN[2:], "--contexts", "16", "--ks", "1,1"],
     "distinct"),
    # the 20-pair corpus holds no batch of 32: refused after config.txt (and BPE) was written
    ("train", ["--corpus", "{corpus}", *TINY_TRAIN, "--batch-size", "32"],
     "corpus size 20 < batch_size 32"),
    ("ablate", ["--corpus", "{corpus}", *TINY_TRAIN[2:], "--contexts", "16",
                "--batch-size", "32"], "corpus size 20 < batch_size 32"),
]


@pytest.mark.parametrize("command, args, named", BAD_ARGUMENTS,
                         ids=[f"{c}-{' '.join(a[-2:])}" for c, a, _ in BAD_ARGUMENTS])
def test_bad_argument_is_one_line_diagnostic(tmp_path, capsys, valid_inputs,
                                             command, args, named):
    paths = dict(valid_inputs, empty=tmp_path / "empty.jsonl")
    paths["empty"].write_text("")
    capsys.readouterr()
    code = run([command, *(a.format(**paths) for a in args), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"longctx {command}: error: ") and err.count("\n") == 1, err
    assert named.format(**paths) in err
    assert not (tmp_path / "out").exists(), "refused before any output"


def test_every_table_a_command_writes_has_rows_as_wide_as_its_header(tmp_path, valid_inputs):
    model = ["--checkpoint", str(valid_inputs["checkpoint"]),
             "--vocab", str(valid_inputs["vocab"]), "--corpus", str(valid_inputs["corpus"])]
    commands = {
        "tokenize-stats": ["--corpus", str(valid_inputs["corpus"]), "--vocab-size", "300"],
        "make-synthetic": ["--classes", "2", "--per-class", "3", "--image-dim", "8",
                           "--prefix-tokens", "4", "--class-token-position", "5"],
        "train": ["--corpus", str(valid_inputs["corpus"]), *TINY_TRAIN],
        "eval-retrieval": model,
        "eval-zeroshot": [*model, "--task", str(valid_inputs["task"])],
        "build-benchmark": ["--articles", str(valid_inputs["articles"])],
        "ablate": ["--corpus", str(valid_inputs["corpus"]), "--contexts", "8,16",
                   *TINY_ABLATE],
    }
    for command, args in commands.items():
        out = tmp_path / command
        assert run([command, *args, "--out", str(out)]) == 0, command
        tables = sorted(out.glob("*.csv"))
        assert tables, command
        for table in tables:
            with table.open(newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and all(len(row) == len(header) for row in rows), table


def test_fields_from_the_input_are_quoted_in_csv_outputs(tmp_path, valid_inputs):
    articles = tmp_path / "articles.jsonl"
    articles.write_text(json.dumps({"article_id": "A,1", "figures": [
        {"figure_id": "f", "image": [0.1, 0.2], "caption": "two words"}]}) + "\n")
    assert run(["build-benchmark", "--articles", str(articles),
                "--out", str(tmp_path / "bench")]) == 0
    with (tmp_path / "bench" / "manifest.csv").open(newline="") as fh:
        assert list(csv.reader(fh)) == [["id", "article_id", "caption_words"],
                                        ["A,1/f", "A,1", "2"]]
    assert run(["eval-retrieval", "--checkpoint", str(valid_inputs["checkpoint"]),
                "--vocab", str(valid_inputs["vocab"]), "--corpus", str(valid_inputs["corpus"]),
                "--benchmark", "set,a", "--ks", "1", "--out", str(tmp_path / "eval")]) == 0
    with (tmp_path / "eval" / "retrieval.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["benchmark", "direction", "K", "recall"]
    assert [row[:3] for row in rows[1:]] == [["set,a", "t2i", "1"], ["set,a", "i2t", "1"]]


COUNT_LISTS = [
    ("ablate", ["--corpus", "{corpus}", "--ks", "0,-1"]),
    ("ablate", ["--corpus", "{corpus}", "--contexts", "77,0"]),
    ("eval-retrieval", [*MODEL, "--corpus", "{corpus}", "--ks", "0"]),
]


@pytest.mark.parametrize("command, args", COUNT_LISTS,
                         ids=[f"{c}-{' '.join(a[-2:])}" for c, a in COUNT_LISTS])
def test_count_lists_reject_values_below_one(tmp_path, capsys, valid_inputs, command, args):
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([command, *(a.format(**valid_inputs) for a in args), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"longctx {command}: error: bad ") and err.count("\n") == 1, err
    assert "at least 1" in err
    assert not out.exists()  # refused before any vocabulary, model or worker


def test_every_train_config_field_is_a_train_option():
    # a setting no command sets is a constant of the trainer, not a field
    assert {f.name for f in fields(TrainConfig)} <= set(cli.SCHEMAS["train"])


def test_demo_data_script_feeds_longcap_and_build_benchmark(tmp_path):
    script = SRC.parent / "scripts" / "make_demo_data.py"
    subprocess.run([sys.executable, str(script), "--out", str(tmp_path / "demo")],
                   check=True, capture_output=True, timeout=120)
    assert run(["longcap", "--records", str(tmp_path / "demo" / "caption_records.jsonl"),
                "--backend", "mock", "--out", str(tmp_path / "lc")]) == 0
    assert run(["build-benchmark", "--articles", str(tmp_path / "demo" / "articles.jsonl"),
                "--out", str(tmp_path / "bench")]) == 0
