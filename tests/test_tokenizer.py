import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_train_bpe
from longctx.errors import DataError, UsageError
from longctx.tokenizer import (
    content_ids,
    corpus_token_stats,
    decode,
    encode,
    format_waste_report,
    load_vocab,
    save_vocab,
    train_bpe,
)

CORPUS = [
    "the cat sat on the mat",
    "a long caption about histology staining with hematoxylin and eosin",
    "figure two shows the same region at higher magnification",
    "arrows indicate scattered immune cells in the tissue section",
]


@pytest.fixture(scope="module")
def vocab():
    return train_bpe(CORPUS, vocab_size=320)


def test_single_symbol_corpus_learns_aa_first():
    v = train_bpe(["aaaa"], vocab_size=260)
    assert v.merges[0] == (ord("a"), ord("a"))


def test_vocab_size_too_small():
    with pytest.raises(UsageError):
        train_bpe(["abc"], vocab_size=258)


def test_round_trip_on_corpus(vocab):
    for text in CORPUS:
        assert decode(vocab, encode(vocab, text, context_length=256)) == text


def test_training_is_deterministic(tmp_path):
    a = train_bpe(CORPUS, vocab_size=300)
    b = train_bpe(CORPUS, vocab_size=300)
    save_vocab(a, tmp_path / "a")
    save_vocab(b, tmp_path / "b")
    assert (tmp_path / "a" / "tokens.txt").read_bytes() == (tmp_path / "b" / "tokens.txt").read_bytes()
    assert (tmp_path / "a" / "merges.txt").read_bytes() == (tmp_path / "b" / "merges.txt").read_bytes()


def test_matches_reference_through_exhaustion():
    v = train_bpe(CORPUS, vocab_size=600)
    ref = reference_train_bpe(CORPUS, vocab_size=600)
    assert 0 < len(v.merges) < 600 - 259      # stopped: no pair left
    assert (v.merges, v.token_bytes) == (ref.merges, ref.token_bytes)


# The reference's last resort (of pairs with equal byte strings, the first
# counted wins) never decides a merge, because no two ids spell the same
# bytes.  Take a token T made by merge t from a span s of some chunk.  Merges
# only remove segment boundaries, so both ends of s are boundaries after each
# of the first t merges, and a left-to-right pass that keeps a boundary treats
# the tokens between two boundaries as it would treat them alone.  By
# induction the first t merges turn the bytes of s alone into [T].  A token T'
# made later from the same bytes is what those bytes alone turn into at its
# merge; a single token stays single, so T' = T.  The property test checks
# the premise on every corpus it draws.
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["ab", "aab ", "a b\n", "abc  ", "aé ", "é中 a", "xy\tz "]).flatmap(
           lambda alphabet: st.lists(st.text(alphabet, max_size=40), min_size=1, max_size=8)),
       st.integers(259, 600))
def test_train_bpe_matches_reference(corpus, vocab_size):
    v = train_bpe(corpus, vocab_size)
    ref = reference_train_bpe(corpus, vocab_size)
    assert v.merges == ref.merges
    assert v.token_bytes == ref.token_bytes
    spelled = v.token_bytes[:v.pad_id]
    assert len(set(spelled)) == len(spelled)


def test_vocab_file_round_trip(tmp_path, vocab):
    save_vocab(vocab, tmp_path)
    loaded = load_vocab(tmp_path)
    assert loaded == vocab
    text = CORPUS[1]
    assert content_ids(loaded, text) == content_ids(vocab, text)


@pytest.mark.parametrize("name, lineno, text", [
    ("tokens.txt", 6, "1 zz"),              # not hex
    ("tokens.txt", 6, "1 61 62"),           # three fields
    ("tokens.txt", 6, "2 01"),              # ids not dense
    ("tokens.txt", 5, "0 01"),              # id 0 is not the byte 00
    ("tokens.txt", 2, "pad x"),             # special id not a number
    ("tokens.txt", 3, "bos 99999"),         # special id outside the table
    ("merges.txt", 1, "1 2 3"),             # three fields
    ("merges.txt", 1, "a b"),               # not ids
    ("merges.txt", 2, "257 0"),             # an id not yet defined
    ("merges.txt", 1, "0 0"),               # does not spell token 256
])
def test_corrupt_vocab_names_file_and_line(tmp_path, vocab, name, lineno, text):
    save_vocab(vocab, tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as info:
        load_vocab(tmp_path)
    message = str(info.value)
    assert str(path) in message and f"line {lineno}" in message and "\n" not in message


def test_encode_under_cutoff(vocab):
    # a text that tokenizes to exactly 10 content tokens
    text = CORPUS[0]
    content = content_ids(vocab, text)
    # the visible ids only: no PAD
    assert encode(vocab, text, context_length=77) == (vocab.bos_id, *content, vocab.eos_id)


def test_encode_truncation_accounting(vocab):
    text = " ".join(["magnification"] * 120)
    full = content_ids(vocab, text)
    assert len(full) > 77 - 2
    # content past 77 - 2 tokens is cut, and EOS still ends the window
    assert encode(vocab, text, context_length=77) == (vocab.bos_id, *full[:75], vocab.eos_id)


def test_visible_ids_prefix_of_full_tokenization(vocab):
    text = CORPUS[1] + " " + CORPUS[2]
    full = content_ids(vocab, text)
    assert list(encode(vocab, text, context_length=10)[1:-1]) == full[:8]


def test_encode_empty_text(vocab):
    seq = encode(vocab, "", context_length=8)
    assert seq == (vocab.bos_id, vocab.eos_id)
    assert decode(vocab, seq) == ""


def test_encode_rejects_tiny_context(vocab):
    with pytest.raises(UsageError):
        encode(vocab, "x", context_length=2)


def test_context_capacity_ratio():
    # the 512-token window holds ~6.6x more than the 77-token default
    assert abs(512 / 77 - 6.6) < 0.1


def test_corpus_stats_fixture_hand_count(vocab):
    # three captions with content lengths 50, 100, 150 ("z" never appears in
    # the training corpus, so each byte stays a single token)
    texts = []
    for target in (50, 100, 150):
        text = "z" * target
        assert len(content_ids(vocab, text)) == target
        texts.append(text)
    report = corpus_token_stats(vocab, texts, cutoff=77)
    assert report.wasted_tokens == (0 + 23 + 73)
    assert report.total_tokens == 300
    assert report.waste_fraction == pytest.approx(0.32)
    assert report.mean_length == 100
    assert report.median_length == 100
    assert (report.min_length, report.max_length) == (50, 150)


def test_corpus_stats_nothing_truncated(vocab):
    report = corpus_token_stats(vocab, CORPUS, cutoff=10_000)
    assert report.wasted_tokens == 0
    assert report.waste_fraction == 0.0


def test_corpus_stats_refuses_a_negative_cutoff(vocab):
    with pytest.raises(UsageError, match="cutoff"):
        corpus_token_stats(vocab, CORPUS, cutoff=-5)


def test_waste_fraction_monotone_in_cutoff(vocab):
    rng = random.Random(3)
    texts = [" ".join(rng.choices(["cell", "tissue", "stain", "arrow"], k=rng.randint(1, 200)))
             for _ in range(30)]
    fractions = [corpus_token_stats(vocab, texts, cutoff=c).waste_fraction
                 for c in (1, 5, 20, 77, 150, 512)]
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))


def test_stats_match_bruteforce_recount(vocab):
    rng = random.Random(9)
    texts = [" ".join(rng.choices(["on", "the", "section", "magnification"],
                                  k=rng.randint(1, 60))) for _ in range(25)]
    cutoff = 13
    report = corpus_token_stats(vocab, texts, cutoff=cutoff)
    lengths = [len(content_ids(vocab, t)) for t in texts]
    assert report.total_tokens == sum(lengths)
    assert report.wasted_tokens == sum(max(0, n - cutoff) for n in lengths)
    assert report.min_length == min(lengths)
    assert report.max_length == max(lengths)
    assert report.mean_length == pytest.approx(sum(lengths) / len(lengths))


def test_report_text_rendering(vocab):
    report = corpus_token_stats(vocab, CORPUS, cutoff=5)
    text = format_waste_report(report)
    assert f"wasted_tokens={report.wasted_tokens}" in text
    assert "note=" in text


@settings(max_examples=40, deadline=None)
@given(st.text(min_size=0, max_size=60))
def test_round_trip_arbitrary_text(text):
    v = train_bpe(CORPUS + [text] if text else CORPUS, vocab_size=300)
    context_length = 4 * max(1, len(text.encode("utf-8"))) + 2
    assert len(content_ids(v, text)) <= context_length - 2
    assert decode(v, encode(v, text, context_length)) == text


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from(CORPUS), min_size=1, max_size=6),
       st.integers(1, 60))
def test_waste_recount_property(texts, cutoff):
    v = train_bpe(CORPUS, vocab_size=300)
    report = corpus_token_stats(v, texts, cutoff=cutoff)
    lengths = [len(content_ids(v, t)) for t in texts]
    assert report.wasted_tokens == sum(max(0, n - cutoff) for n in lengths)
    assert report.waste_fraction == pytest.approx(report.wasted_tokens / max(1, report.total_tokens))
