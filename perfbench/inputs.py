"""Seeded inputs for the three workloads.

Every generator is a pure function of its seed.  The program under test
only ever sees the files written here; the planted facts that the output
checks need (non-visual clauses, acronym expansions) are returned to the
benchmark and never written next to the inputs.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path
from statistics import NormalDist

import numpy as np

from longctx.cli import SCHEMAS, _encoder_configs
from longctx.data import SyntheticSpec, generate_synthetic, save_corpus
from longctx.encoders import init_params, save_checkpoint
from longctx.longcap import (
    NOT_VISUAL_MARKERS, CaptionRecord, MockBackend, run_pipeline,
    write_caption_records)
from longctx.tokenizer import save_vocab, train_bpe
from longctx.words import DISTRACTOR_POOL

# ablate: the acceptance corpus (10 classes x 200 pairs, 64-dim images)
ABLATE_SPEC = dict(num_classes=10, samples_per_class=200, image_dim=64)

# retrieval-eval: a gallery four times the acceptance corpus, scored by an
# untrained checkpoint with the ablate architecture (the desk profile of
# `longctx ablate`).  The vocabulary is trained at a reduced size because
# train_bpe costs about 12 s at 1850 on any sample of these captions, and
# set-up runs several times per benchmark run.
GALLERY_SPEC = dict(num_classes=10, samples_per_class=800, image_dim=64)
GALLERY_VOCAB_SIZE = 512
GALLERY_VOCAB_SAMPLE = 200
ABLATE_PROFILE = {key: default for key, (_, default, _) in SCHEMAS["ablate"].items()}
EVAL_CONTEXT = 512

# longcap-waste: caption records with long-tailed clause counts.  The law is
# fitted so that the enriched captions waste what the paper reports: 55% of
# content tokens past a 77 window and 2.2% past 512 (54.4-54.9% and
# 2.10-2.26% on seeds 1-4, at the workload's vocabulary of 1024 ids).
LONGCAP_RECORDS = 3000
CLAUSES_MEDIAN, CLAUSES_SIGMA, CLAUSES_MAX = 12.1, 0.8, 100
FIRST_PASS_SHARE = 0.6
# the torn-journal resume runs on fixed inputs, whatever the run's seed
TORN_SEED = 0
TORN_RECORDS = 20
TORN_JOURNALED = 10

PLANTED_PHRASES = (
    "improved survival was reported", "overall mortality fell", "the prognosis was good",
    "treatment efficacy was high", "the response rate rose", "a significant change",
    "with a history of smoking", "at follow-up the lesion", "the clinical outcome",
)
# ordinary words that no non-visual marker matches, so only planted clauses
# are judged NOT_FEASIBLE by the mock backend.  The pool is kept to 400
# words so that the waste report's BPE training stays a few seconds long.
VISUAL_WORDS = tuple(w for w in DISTRACTOR_POOL
                     if not any(m in w for m in NOT_VISUAL_MARKERS))[:400]
ACRONYMS = 60


def make_ablate(out: Path, seed: int) -> dict:
    corpus, _ = generate_synthetic(SyntheticSpec(seed=seed, **ABLATE_SPEC))
    save_corpus(corpus, out / "corpus.jsonl")
    return {"corpus": str(out / "corpus.jsonl"), "pairs": len(corpus)}


def make_gallery(out: Path, seed: int) -> dict:
    corpus, _ = generate_synthetic(SyntheticSpec(seed=seed, **GALLERY_SPEC))
    save_corpus(corpus, out / "gallery.jsonl")
    captions = corpus.captions()
    step = len(captions) // GALLERY_VOCAB_SAMPLE
    vocab = train_bpe(captions[::step][:GALLERY_VOCAB_SAMPLE], GALLERY_VOCAB_SIZE)
    save_vocab(vocab, out / "vocab")
    text_cfg, img_cfg = _encoder_configs(ABLATE_PROFILE, EVAL_CONTEXT, vocab.size,
                                         corpus.image_dim)
    # weights in the dtype `longctx ablate` trains them in
    params = {k: v.astype(ABLATE_PROFILE["dtype"])
              for k, v in init_params(text_cfg, img_cfg, seed).items()}
    save_checkpoint(out / "checkpoint.npz", text_cfg, img_cfg, params, log_scale=0.0)
    return {"corpus": str(out / "gallery.jsonl"), "vocab": str(out / "vocab"),
            "checkpoint": str(out / "checkpoint.npz"), "pairs": len(corpus)}


def _clause(rng, lo=4, hi=10) -> str:
    n = int(rng.integers(lo, hi + 1))
    return " ".join(VISUAL_WORDS[i] for i in rng.integers(0, len(VISUAL_WORDS), size=n))


def _acronym_pool(rng) -> dict:
    pool = {}
    while len(pool) < ACRONYMS:
        n = int(rng.integers(2, 5))
        pool.setdefault("".join(chr(65 + int(c)) for c in rng.integers(0, 26, size=n)),
                        _clause(rng, 2, 4))
    return pool


def caption_records(seed: int, count: int):
    """Records plus, per record id, the planted clauses and acronyms.

    Clause counts follow a lognormal law, so enriched captions are
    long-tailed: most overflow a 77-token window and a few exceed 512
    tokens.  The counts are the law's quantiles in a seeded order, so every
    seed gets the same length profile and the same amount of work.  Each record
    uses one to three acronyms of a shared pool inside its visual clauses,
    and carries one or two clauses built around a non-visual marker.
    """
    rng = np.random.default_rng(seed)
    pool = _acronym_pool(rng)
    names = sorted(pool)
    law = NormalDist(math.log(CLAUSES_MEDIAN), CLAUSES_SIGMA)
    counts = [min(CLAUSES_MAX, math.ceil(math.exp(law.inv_cdf((i + 0.5) / count))))
              for i in range(count)]
    records, planted = [], {}
    for i, n_clauses in enumerate(rng.permutation(counts)):
        picks = rng.choice(len(names), size=int(rng.integers(1, 4)), replace=False)
        acronyms = {names[j]: pool[names[j]] for j in picks}
        clauses = [_clause(rng) for _ in range(int(n_clauses))]
        for acro in acronyms:
            j = int(rng.integers(0, len(clauses)))
            clauses[j] = f"{clauses[j]} {acro} {_clause(rng, 1, 3)}"
        bad = []
        for _ in range(int(rng.integers(1, 3))):
            phrase = PLANTED_PHRASES[int(rng.integers(0, len(PLANTED_PHRASES)))]
            bad.append(f"{_clause(rng, 1, 3)} {phrase} {_clause(rng, 1, 3)}")
        # caption: the first clauses and one planted clause; the rest goes to
        # the inline mentions and the abstract, as context from the article
        k = max(1, len(clauses) // 4)
        caption = ". ".join(clauses[:k] + bad[:1]) + "."
        mentions = tuple(c + "." for c in clauses[k:k + 2])
        rest = clauses[k + 2:] + bad[1:]
        abstract = ". ".join(rest) + "." if rest else ""
        rid = f"rec-{i:05d}"
        records.append(CaptionRecord(
            id=rid, image_ref=f"img://{seed}/{i}", caption=caption,
            inline_mentions=mentions, abstract=abstract, acronym_map=acronyms))
        planted[rid] = {"not_visual": bad, "acronyms": acronyms}
    return records, planted


def make_longcap(out: Path, seed: int) -> dict:
    records, planted = caption_records(seed, LONGCAP_RECORDS)
    write_caption_records(records, out / "records.jsonl")
    first = int(len(records) * FIRST_PASS_SHARE)
    write_caption_records(records[:first], out / "records_part.jsonl")
    # the torn journal: a clean journal over the first fixed records whose
    # final line is cut mid-write, as by a crash during an append
    torn_records, _ = caption_records(TORN_SEED, TORN_RECORDS)
    write_caption_records(torn_records, out / "torn_records.jsonl")
    journal = out / "torn_journal.jsonl"
    run_pipeline(torn_records[:TORN_JOURNALED], MockBackend(seed=0),
                 journal_path=journal, max_workers=1)
    text = journal.read_text()
    last = text.rstrip("\n").rfind("\n") + 1
    journal.write_text(text[:last + (len(text) - last) // 2])
    return {"records": str(out / "records.jsonl"),
            "records_part": str(out / "records_part.jsonl"),
            "torn_records": str(out / "torn_records.jsonl"),
            "torn_journal": str(journal),
            "count": len(records), "first_pass": first,
            "torn_count": len(torn_records),
            "inputs": {r.id: r for r in records}, "planted": planted}


MAKERS = {"ablate": make_ablate, "longcap-waste": make_longcap,
          "retrieval-eval": make_gallery}


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path

