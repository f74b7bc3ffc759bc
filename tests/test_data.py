import io
import json
import re
import tarfile

import numpy as np
import pytest

from helpers import save_shards, traced_memory
from longctx.data import (
    Article,
    CorpusRecord,
    Figure,
    PairedCorpus,
    SyntheticSpec,
    build_long_caption_benchmark,
    generate_synthetic,
    load_articles,
    load_corpus,
    save_corpus,
    write_benchmark_manifest,
)
from longctx.errors import DataError, UsageError
from longctx.evaluation import read_zero_shot_records
from longctx.longcap import read_caption_records, read_journal
from longctx.tokenizer import content_ids, train_bpe


def small_corpus(n=3, dim=4):
    rng = np.random.default_rng(0)
    return PairedCorpus([
        CorpusRecord(id=f"r{i}", image=rng.normal(size=dim),
                     caption=f"caption number {i}", context={"k": i})
        for i in range(n)
    ])


def test_records_round_trip(tmp_path):
    corpus = small_corpus()
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert len(loaded) == 3
    for a, b in zip(corpus.records, loaded.records):
        assert a.id == b.id and a.caption == b.caption
        np.testing.assert_allclose(a.image, b.image)
        assert a.context == b.context


def test_shards_round_trip(tmp_path):
    corpus = small_corpus(n=5)
    save_shards(corpus, tmp_path / "shards", shard_size=2)
    loaded = load_corpus(tmp_path / "shards")
    assert sorted(r.id for r in loaded.records) == sorted(r.id for r in corpus.records)
    for rec in corpus.records:
        got = loaded[rec.id]
        assert got.caption == rec.caption
        np.testing.assert_allclose(got.image, rec.image)
        assert got.context == rec.context


def test_records_then_shards_then_records_identical(tmp_path):
    corpus = small_corpus(n=4)
    save_corpus(corpus, tmp_path / "a.jsonl")
    mid = load_corpus(tmp_path / "a.jsonl")
    save_shards(mid, tmp_path / "shards")
    back = load_corpus(tmp_path / "shards")
    save_corpus(back, tmp_path / "b.jsonl")
    a = sorted((tmp_path / "a.jsonl").read_text().splitlines())
    b = sorted((tmp_path / "b.jsonl").read_text().splitlines())
    assert a == b


def test_duplicate_ids_rejected():
    rec = CorpusRecord(id="x", image=np.zeros(2), caption="c")
    with pytest.raises(DataError, match="duplicate"):
        PairedCorpus([rec, rec])


def test_dimension_mismatch_rejected():
    with pytest.raises(DataError, match="dim"):
        PairedCorpus([
            CorpusRecord(id="a", image=np.zeros(2), caption="c"),
            CorpusRecord(id="b", image=np.zeros(3), caption="c"),
        ])


def test_malformed_record_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "image": [0.0], "caption": "ok"}\n{"id": "b"}\n')
    with pytest.raises(DataError, match="line 2"):
        load_corpus(path)


def test_shard_missing_member_names_basename(tmp_path):
    import tarfile, io
    shard = tmp_path / "broken.tar"
    with tarfile.open(shard, "w") as tar:
        payload = b"caption only"
        info = tarfile.TarInfo("orphan.txt")
        info.size = len(payload)
        tar.addfile(info, io.BytesIO(payload))
    with pytest.raises(DataError, match="orphan"):
        load_corpus(shard)


# -- the input boundary ----------------------------------------------------------

# LINE SEPARATOR and NEXT LINE: str.splitlines splits on them, and
# json.dumps(..., ensure_ascii=False) writes them raw inside a string
SEPARATED = "before\u2028middle\u0085after"

# reader, a valid line-1 object carrying SEPARATED, and where it comes back
READERS = {
    "corpus": (load_corpus, {"id": "a", "image": [0.0], "caption": SEPARATED},
               lambda out: out.records[0].caption),
    "articles": (load_articles, {"article_id": "a", "figures": [
        {"figure_id": "f", "image": [0.0], "caption": SEPARATED}]},
                 lambda out: out[0].figures[0].caption),
    "caption-records": (read_caption_records, {"id": "a", "caption": SEPARATED},
                        lambda out: out[0].caption),
    "journal": (read_journal, {"id": "a", "status": "done", "caption": SEPARATED},
                lambda out: out[0].caption),
    "task": (read_zero_shot_records, {"image": "a", "options": [SEPARATED, "b"], "correct": 0},
             lambda out: out[0][1][0]),
}


def _line(obj, ensure_ascii=True) -> bytes:
    return json.dumps(obj, ensure_ascii=ensure_ascii).encode("utf-8") + b"\n"


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("line2", [b"\xff\xfe{}", b"[1, 2]", b"{}", None],
                         ids=["non-utf8", "array", "empty-object", "missing-file"])
def test_bad_input_is_one_data_error_naming_file_and_line(tmp_path, reader, line2):
    read, first, _ = READERS[reader]
    path = tmp_path / "input.jsonl"
    if line2 is not None:
        path.write_bytes(_line(first) + line2 + b"\n")
    with pytest.raises(DataError) as info:
        read(path)
    message = str(info.value)
    assert str(path) in message and "\n" not in message
    if line2 is not None:
        assert f"{path} line 2: malformed" in message


@pytest.mark.parametrize("reader", READERS)
def test_raw_line_separators_stay_inside_their_string(tmp_path, reader):
    read, first, field = READERS[reader]
    path = tmp_path / "input.jsonl"
    path.write_bytes(_line(first, ensure_ascii=False))
    assert field(read(path)) == SEPARATED


@pytest.mark.parametrize("reader", READERS)
def test_an_escaped_surrogate_pair_reads_as_one_character(tmp_path, reader):
    # a lone surrogate escape is refused (test_cli's sweep); a pair is one emoji
    read, first, field = READERS[reader]
    path = tmp_path / "input.jsonl"
    path.write_bytes(_line(first).replace(b"middle", rb"\ud83d\ude00"))
    assert field(read(path)) == SEPARATED.replace("middle", "\U0001F600")


def test_load_corpus_holds_one_line_besides_what_it_keeps(tmp_path):
    # a 3 MB file: reading it whole would add its size on top of the records
    corpus, _ = generate_synthetic(SyntheticSpec(num_classes=10, samples_per_class=150,
                                                 image_dim=64, seed=4))
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    del corpus
    loaded, kept, peak = traced_memory(lambda: load_corpus(path))
    assert len(loaded) == 1500 and path.stat().st_size > 3e6
    assert peak - kept < 0.25e6, f"kept {kept / 1e6:.2f} MB, peaked at {peak / 1e6:.2f} MB"


def test_record_validation_error_names_file_and_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(_line({"id": "a", "caption": "ok"}) + _line({"id": "x", "caption": ""}))
    with pytest.raises(DataError, match=re.escape(f"{path} line 2: malformed caption record")):
        read_caption_records(path)


def test_repeated_caption_record_id_names_file_and_line(tmp_path):
    path = tmp_path / "records.jsonl"
    rec = {"id": "a", "caption": "ok"}
    path.write_bytes(_line(rec) + _line({"id": "b", "caption": "ok"}) + _line(rec))
    with pytest.raises(DataError, match=re.escape(f"{path} line 3: malformed caption record")
                       + ".*duplicate record id 'a'"):
        read_caption_records(path)


@pytest.mark.parametrize("format", ["records", "shards"])
def test_duplicate_id_in_a_file_names_the_file(tmp_path, format):
    path = tmp_path / "in.jsonl"
    rec = {"id": "a", "image": [0.0], "caption": "c"}
    path.write_bytes(_line(rec) + _line(rec))
    if format == "shards":
        # two shards, each with record 'a'
        path = tmp_path / "shards"
        for i in range(2):
            save_shards(small_corpus(n=1), path / f"{i}")
            (path / f"{i}" / "shard-00000.tar").rename(path / f"s{i}.tar")
    with pytest.raises(DataError, match=re.escape(f"{path}: duplicate record id")):
        load_corpus(path)


@pytest.mark.parametrize("context", [5, "k", [1], None])
def test_record_context_must_be_an_object(tmp_path, context):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(_line({"id": "a", "image": [0.0], "caption": "c"})
                     + _line({"id": "b", "image": [0.0], "caption": "c", "context": context}))
    with pytest.raises(DataError, match=re.escape(f"{path} line 2: malformed record") +
                       ".*context must be a JSON object"):
        load_corpus(path)


TASK = {"image": "a", "options": ["x", "y"], "correct": 0}
ARTICLE = {"article_id": "a", "date": "2025-01-01", "figures": [
    {"figure_id": "f", "image": [0.0], "caption": "cap"}]}
CORPUS_LINE = {"id": "a", "image": [0.0, 1.0], "caption": "c"}
JOURNAL_LINE = {"id": "a", "status": "done", "caption": "x", "stage": "",
                "low_content": False, "template_version": "v1"}
# a field whose value a reader would otherwise convert: a number read as its
# text, a string read as its characters, a boolean read as 0 or 1, a list of
# pairs read as a mapping.  Test id -> (reader, a valid record, the field's
# path in it, a value of the wrong type); the error says what the path's
# last key must be
WRONG_TYPES = {
    "options": (read_zero_shot_records, TASK, ["options"], "cat"),
    "correct": (read_zero_shot_records, TASK, ["correct"], True),
    "inline_refs": (load_articles, ARTICLE, ["figures", 0, "inline_refs"], "see here"),
    "inline_mentions": (read_caption_records, {"id": "a", "caption": "cap"},
                        ["inline_mentions"], "abc"),
    "acronym_map": (read_caption_records, {"id": "a", "caption": "cap"}, ["acronym_map"],
                    [["HE", "stain"]]),
    "corpus-id": (load_corpus, CORPUS_LINE, ["id"], 7),
    "corpus-caption": (load_corpus, CORPUS_LINE, ["caption"], ["a", "b"]),
    "image-strings": (load_corpus, CORPUS_LINE, ["image"], ["1.5", "2"]),
    "image-booleans": (load_corpus, CORPUS_LINE, ["image"], [True, False]),
    "article_id": (load_articles, ARTICLE, ["article_id"], 5),
    "figure_id": (load_articles, ARTICLE, ["figures", 0, "figure_id"], 3),
    "article-caption": (load_articles, ARTICLE, ["figures", 0, "caption"], ["cap"]),
    "date": (load_articles, ARTICLE, ["date"], 20250101),
    "task-image": (read_zero_shot_records, TASK, ["image"], 3),
    "record-id": (read_caption_records, {"id": "a", "caption": "cap"}, ["id"], 5),
    "image_ref": (read_caption_records, {"id": "a", "caption": "cap"}, ["image_ref"], 1),
    "record-caption": (read_caption_records, {"id": "a", "caption": "cap"}, ["caption"],
                       ["cap"]),
    "abstract": (read_caption_records, {"id": "a", "caption": "cap"}, ["abstract"],
                 ["see", "here"]),
    "acronym_map-value": (read_caption_records, {"id": "a", "caption": "cap"},
                          ["acronym_map"], {"HE": 5}),
    # not a wrong type: it would fail the record after three backend calls
    "acronym_map-empty": (read_caption_records, {"id": "a", "caption": "cap"},
                          ["acronym_map"], {"HE": ""}),
    # not a wrong type either: it would reach the caption, which is then no text
    "acronym_map-surrogate": (read_caption_records, {"id": "a", "caption": "cap"},
                              ["acronym_map"], {"HE": "\ud800"}),
    "journal-id": (read_journal, JOURNAL_LINE, ["id"], 5),
    "status": (read_journal, JOURNAL_LINE, ["status"], 1),
    "journal-caption": (read_journal, JOURNAL_LINE, ["caption"], None),
    "stage": (read_journal, JOURNAL_LINE, ["stage"], 0),
    "low_content": (read_journal, JOURNAL_LINE, ["low_content"], "yes"),
    "template_version": (read_journal, JOURNAL_LINE, ["template_version"], 1),
}


@pytest.mark.parametrize("field", WRONG_TYPES)
def test_a_field_of_the_wrong_type_names_file_and_line(tmp_path, field):
    read, valid, where, wrong = WRONG_TYPES[field]
    bad = json.loads(json.dumps(valid))
    target = bad
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = wrong
    path = tmp_path / "input.jsonl"
    path.write_bytes(_line(valid) + _line(bad))
    with pytest.raises(DataError, match=re.escape(f"{path} line 2: malformed")
                       + rf".*\b{where[-1]}\b.* must be"):
        read(path)


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


@pytest.mark.parametrize("member, payload", [
    ("r.txt", b"caption \xff\xfe"),
    ("r.npy", _npy(np.arange(6.0))[:-20]),
    ("r.json", b"{not json"),
    ("r.npy", _npy(np.array([0.0, np.inf, 1.0]))),
], ids=["non-utf8-txt", "truncated-npy", "bad-json", "non-finite-npy"])
def test_bad_shard_member_names_shard_and_member(tmp_path, member, payload):
    members = {"r.npy": _npy(np.arange(6.0)), "r.txt": b"a caption", "r.json": b"{}"}
    members[member] = payload
    shard = tmp_path / "shard.tar"
    with tarfile.open(shard, "w") as tar:
        for name, data in members.items():
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    with pytest.raises(DataError, match=re.escape(f"{shard}: malformed member '{member}'")):
        load_corpus(shard)


# -- benchmark builder ---------------------------------------------------------


def make_article(aid, n_figures, refs=("mentioned in section two",), date="2025-03-01"):
    rng = np.random.default_rng(hash(aid) % 2**31)
    figures = tuple(
        Figure(figure_id=f"f{j}", image=rng.normal(size=4),
               caption=f"figure {j} of {aid}", inline_refs=refs)
        for j in range(n_figures))
    return Article(article_id=aid, figures=figures, date=date)


def test_benchmark_one_pair_per_article_deterministic():
    articles = [make_article("a1", 2), make_article("a2", 3), make_article("a3", 1)]
    b1 = build_long_caption_benchmark(articles, seed=5)
    b2 = build_long_caption_benchmark(articles, seed=5)
    assert [r.id for r in b1.corpus.records] == [r.id for r in b2.corpus.records]
    assert len(b1.corpus) == 3
    article_ids = [r.context["article_id"] for r in b1.corpus.records]
    assert len(set(article_ids)) == 3  # no article reused


def test_benchmark_concatenates_refs_then_caption():
    articles = [make_article("a1", 1, refs=("ref one", "ref two"))]
    build = build_long_caption_benchmark(articles, seed=0)
    caption = build.corpus.records[0].caption
    assert caption == "ref one ref two\n\nfigure 0 of a1"


def test_benchmark_no_refs_keeps_original_caption():
    articles = [make_article("a1", 1, refs=())]
    build = build_long_caption_benchmark(articles, seed=0)
    assert build.corpus.records[0].caption == "figure 0 of a1"


def test_benchmark_skips_and_counts_figureless_articles():
    articles = [make_article("a1", 0), make_article("a2", 2)]
    build = build_long_caption_benchmark(articles, seed=0)
    assert len(build.corpus) == 1
    assert build.skipped_articles == 1


def test_benchmark_date_filter():
    articles = [make_article("old", 1, date="2024-12-31"),
                make_article("new", 1, date="2025-01-02")]
    build = build_long_caption_benchmark(articles, seed=0, min_date="2025-01-01")
    assert [r.context["article_id"] for r in build.corpus.records] == ["new"]
    assert build.skipped_articles == 1


def test_benchmark_captions_at_least_original_length():
    articles = [make_article(f"a{i}", 2, refs=("x",) * i) for i in range(4)]
    build = build_long_caption_benchmark(articles, seed=1)
    for rec in build.corpus.records:
        original = rec.caption.split("\n\n")[-1]
        assert len(rec.caption) >= len(original)


def test_articles_fixture_parser(tmp_path):
    path = tmp_path / "articles.jsonl"
    path.write_text(
        '{"article_id": "a", "date": "2025-05-05", "figures": '
        '[{"figure_id": "f0", "image": [0.1, 0.2], "caption": "cap", '
        '"inline_refs": ["r"]}]}\n')
    articles = load_articles(path)
    assert articles[0].article_id == "a"
    assert articles[0].figures[0].inline_refs == ("r",)
    build = build_long_caption_benchmark(articles, seed=0)
    out = tmp_path / "manifest.csv"
    write_benchmark_manifest(build, out)
    assert out.read_text().splitlines()[0] == "id,article_id,caption_words"


# -- synthetic corpus -----------------------------------------------------------


def test_synthetic_deterministic():
    spec = SyntheticSpec(num_classes=3, samples_per_class=4, image_dim=16, seed=7)
    c1, l1 = generate_synthetic(spec)
    c2, l2 = generate_synthetic(spec)
    assert l1 == l2
    for a, b in zip(c1.records, c2.records):
        assert a.caption == b.caption
        np.testing.assert_array_equal(a.image, b.image)


def test_synthetic_class_word_position():
    spec = SyntheticSpec(num_classes=2, samples_per_class=3, image_dim=8,
                         distractor_prefix_tokens=10, class_token_position=15, seed=0)
    corpus, labels = generate_synthetic(spec)
    for rec, label in zip(corpus.records, labels):
        words = rec.caption.split()
        assert len(words) == 16
        assert words[15] == label
        assert label not in words[:15]


def test_synthetic_truncated_captions_carry_no_class_info():
    spec = SyntheticSpec(num_classes=4, samples_per_class=5, image_dim=8,
                         distractor_prefix_tokens=100, class_token_position=110, seed=1)
    corpus, labels = generate_synthetic(spec)
    for rec, label in zip(corpus.records, labels):
        words = rec.caption.split()[:77]
        assert label not in words


def test_synthetic_prototype_separation():
    spec = SyntheticSpec(num_classes=10, samples_per_class=1, image_dim=64,
                         noise_std=0.0, seed=3)
    corpus, labels = generate_synthetic(spec)
    imgs = corpus.images()
    imgs = imgs / np.linalg.norm(imgs, axis=1, keepdims=True)
    cos = imgs @ imgs.T
    np.fill_diagonal(cos, 0.0)
    assert np.abs(cos).max() < 0.5


def test_synthetic_invalid_specs():
    with pytest.raises(UsageError, match="exceed"):
        SyntheticSpec(distractor_prefix_tokens=10, class_token_position=10)
    with pytest.raises(UsageError, match="capacity"):
        SyntheticSpec(num_classes=100)


def test_synthetic_prefix_exchangeable_across_classes():
    # the same pool serves every class: no word should be drastically
    # overrepresented in one class in the pre-class-token prefix
    spec = SyntheticSpec(num_classes=2, samples_per_class=60, image_dim=8,
                         distractor_prefix_tokens=40, class_token_position=50, seed=5)
    corpus, labels = generate_synthetic(spec)
    from collections import Counter
    counts = {}
    for rec, label in zip(corpus.records, labels):
        counts.setdefault(label, Counter()).update(rec.caption.split()[:50])
    (ca, cb) = counts.values()
    top = [w for w, _ in (ca + cb).most_common(15)]
    total_a, total_b = sum(ca.values()), sum(cb.values())
    for w in top:
        pa, pb = ca[w] / total_a, cb[w] / total_b
        p = (ca[w] + cb[w]) / (total_a + total_b)
        sigma = (p * (1 - p) / total_a) ** 0.5
        assert abs(pa - pb) < 6 * sigma + 1e-9


def test_synthetic_signature_straddles_the_154_window():
    # on the acceptance corpus a 154 window (152 content tokens) must cut
    # through the signature region and drop the class word, or the 154 and
    # 512 runs of the context ablation see the same text
    spec = SyntheticSpec(num_classes=10, samples_per_class=200, image_dim=64,
                         distractor_prefix_tokens=100, class_token_position=110,
                         noise_std=0.15, seed=0)
    corpus, _ = generate_synthetic(spec)
    vocab = train_bpe(corpus.captions(), vocab_size=1850)
    capacity = 154 - 2
    straddles = 0
    for rec in corpus.records:
        words = rec.caption.split()
        sig_start = len(content_ids(vocab, " ".join(words[:100])))
        class_start = len(content_ids(vocab, " ".join(words[:110])))
        assert sig_start >= 77 - 2  # the prefix still fills the 77 window
        straddles += sig_start < capacity < class_start
    assert straddles >= 0.9 * len(corpus)


def test_synthetic_tokenizes_with_class_word_beyond_short_window():
    spec = SyntheticSpec(num_classes=2, samples_per_class=10, image_dim=8, seed=2)
    corpus, labels = generate_synthetic(spec)
    vocab = train_bpe(corpus.captions(), vocab_size=2048)
    for rec, label in zip(corpus.records[:5], labels[:5]):
        prefix = " ".join(rec.caption.split()[:110])
        n_prefix = len(content_ids(vocab, prefix))
        assert n_prefix >= 110  # class word can never enter a 77-token window
