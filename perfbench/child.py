"""Runs one longctx command in a fresh process, as `longctx ARGS` would.

    python3 perfbench/child.py RESULT.json TRACE -- ARGS...

TRACE is 1 to record spans around the calls into each longctx module, 0 to
run untraced.  Either way the process keeps two handles that the output
checks need and that cost nothing while the command runs: the longcap
backend, whose request log is read after the command, and the arguments
and result of the one ``recall_pair`` call of an evaluation.  RESULT.json
receives the exit code, the peak resident memory and the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


def install_spans(tracer) -> None:
    from longctx import data, encoders, evaluation, longcap, numerics, tokenizer, trainer

    tracer.patch_function(tokenizer.train_bpe, "tokenizer.train_bpe")
    tracer.patch_function(tokenizer.encode, "tokenizer.encode")
    tracer.patch_function(
        tokenizer.corpus_token_stats, "tokenizer.corpus_token_stats",
        on_return=lambda a, k, r: {"tokens": r.total_tokens})
    tracer.patch_function(numerics.forward, "numerics.forward")
    tracer.patch_function(numerics.backward, "numerics.backward")
    tracer.patch_function(
        trainer.train, "trainer.train",
        on_call=lambda a, k: {"context": a[0].context_length},
        on_return=lambda a, k, r: {"seconds": [p.seconds for p in r.curve]})
    tracer.patch_method(encoders.TrainedModel, "encode_texts", "encoders.encode_texts",
                        on_call=lambda a, k: {"items": len(a[1])})
    tracer.patch_method(encoders.TrainedModel, "encode_images", "encoders.encode_images",
                        on_call=lambda a, k: {"items": len(a[1])})
    tracer.patch_function(evaluation.recall_pair, "evaluation.recall_pair",
                          on_call=lambda a, k: {"queries": 2 * len(a[0])})
    tracer.patch_function(data.load_corpus, "data.load_corpus")
    tracer.patch_function(longcap.run_pipeline, "longcap.run_pipeline")
    tracer.patch_method(longcap.MockBackend, "generate", "longcap.backend")
    tracer.patch_function(longcap.append_journal, "longcap.append_journal")
    tracer.patch_function(longcap.read_journal, "longcap.read_journal")


def main(argv: list[str]) -> int:
    result_path, trace, sep, args = Path(argv[0]), argv[1] == "1", argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT.json TRACE -- ARGS...")
    sys.path.insert(0, str(SRC))
    from longctx import cli, longcap
    from spans import Tracer

    tracer = Tracer()
    if trace:
        install_spans(tracer)

    held = {}
    make_backend, recall_pair = cli.make_backend, cli.recall_pair

    def keep_backend(*a, **k):
        held["backend"] = make_backend(*a, **k)
        return held["backend"]

    def keep_recall(image_embs, text_embs, *a, **k):
        t2i, i2t = recall_pair(image_embs, text_embs, *a, **k)
        held["recall"] = (image_embs, text_embs, t2i.ranks, i2t.ranks)
        return t2i, i2t

    cli.make_backend, cli.recall_pair = keep_backend, keep_recall

    code, error = 1, None
    try:
        code = cli.run(args)
    except Exception as exc:  # a crash of the command is a failed operation
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    finally:
        result = {"exit": code, "error": error, "spans": tracer.spans,
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if "backend" in held:
            result["augment_captions"] = [
                longcap._section(p, "CAPTION")
                for p in held["backend"].requests if p.startswith("TASK: augment")]
        if "recall" in held:
            z_img, z_txt, r_t2i, r_i2t = held["recall"]
            np.savez(result_path.with_suffix(".npz"), z_img=z_img, z_txt=z_txt,
                     ranks_t2i=r_t2i, ranks_i2t=r_i2t)
        result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
