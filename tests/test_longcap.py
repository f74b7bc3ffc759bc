import builtins
import dataclasses
import io
import json
import os
import random
import sys
import threading
import time
from xml.sax.saxutils import escape, quoteattr

import pytest
import requests

from helpers import fixture_caption_records, reference_section
from longctx.errors import DataError, UsageError
from longctx import longcap
from longctx.longcap import (
    REPAIR_SUFFIX,
    BackendError,
    CaptionRecord,
    FeasibilityReport,
    FeatureJudgment,
    HttpBackend,
    MockBackend,
    ParseFailure,
    assess_feasibility,
    augment_caption,
    expand_acronyms,
    make_backend,
    process_record,
    read_caption_records,
    read_journal,
    refine_caption,
    run_pipeline,
    split_atomic_features,
    write_caption_records,
    write_output_corpus,
)


class ScriptedBackend:
    """Returns canned responses in order; raises when scripted to.  A
    response that is a function is called with the prompt for the reply."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def generate(self, prompt, image_ref=None):
        self.requests.append(prompt)
        item = self.responses.pop(0)
        if callable(item):
            item = item(prompt)
        if isinstance(item, Exception):
            raise item
        return item


def simple_record(**kw):
    base = dict(id="r1", image_ref="img://1", caption="a cell with a dark nucleus")
    base.update(kw)
    return CaptionRecord(**base)


# -- step 1: augment ------------------------------------------------------------


def test_augment_with_no_context_contains_caption_verbatim():
    record = simple_record(inline_mentions=(), abstract="")
    out = augment_caption(record, MockBackend())
    assert record.caption in out


def test_augment_deterministic():
    record = fixture_caption_records()[0]
    a = augment_caption(record, MockBackend())
    b = augment_caption(record, MockBackend())
    assert a == b


def test_augment_echoes_context_terms():
    record = simple_record(
        caption="tissue section of the cortex",
        inline_mentions=("the section was stained with hematoxylin",),
    )
    out = augment_caption(record, MockBackend())
    assert "hematoxylin" in out


@pytest.mark.parametrize("blank", ["", " \n\t"])
def test_blank_augment_reply_fails_the_record_at_augment(blank):
    # it used to go on to fail the record at assess, with no reprompt
    backend = ScriptedBackend([blank, blank])
    result = process_record(simple_record(), backend)
    assert (result.status, result.stage) == ("failed", "augment: augmented caption is blank")
    assert [p.split("\n", 1)[0] for p in backend.requests] == ["TASK: augment"] * 2
    assert backend.requests[1] == backend.requests[0] + REPAIR_SUFFIX


def test_blank_augment_reply_gets_the_repair_reprompt():
    backend = ScriptedBackend([" ", " a cell\n"])
    assert augment_caption(simple_record(), backend) == "a cell"


def test_repair_suffix_fits_every_step():
    # the refine prompt has no XML schema to point back to
    assert "xml" not in REPAIR_SUFFIX.lower()


# -- step 2: assess --------------------------------------------------------------


def test_assess_single_feasible_feature():
    backend = ScriptedBackend(
        ['<features><feature label="FEASIBLE" rationale="visible">a cell</feature></features>'])
    report = assess_feasibility("img://1", "a cell", backend)
    assert len(report.features) == 1
    assert report.features[0].label == "FEASIBLE"


def test_assess_repairs_after_invalid_xml():
    backend = ScriptedBackend([
        "this is not xml at all",
        '<features><feature label="FEASIBLE" rationale="ok">a cell</feature></features>',
    ])
    report = assess_feasibility("img://1", "a cell", backend)
    assert len(report.features) == 1
    assert len(backend.requests) == 2
    assert backend.requests[1] == backend.requests[0] + REPAIR_SUFFIX


def test_assess_fails_after_second_bad_reply():
    backend = ScriptedBackend(["<broken", "<features></features>"])
    with pytest.raises(ParseFailure):
        assess_feasibility("img://1", "a cell", backend)


def test_assess_preserves_not_feasible_label():
    backend = ScriptedBackend([
        '<features><feature label="NOT_FEASIBLE" rationale="clinical claim">'
        'patient survival improved</feature></features>'])
    report = assess_feasibility("img://1", "patient survival improved", backend)
    assert report.not_feasible() == ["patient survival improved"]


def test_assess_rejects_unknown_label():
    backend = ScriptedBackend([
        '<features><feature label="MAYBE" rationale="x">a</feature></features>',
        '<features><feature label="MAYBE" rationale="x">a</feature></features>'])
    with pytest.raises(ParseFailure):
        assess_feasibility("img://1", "a", backend)


def test_mock_assess_labels_non_visual_claims():
    backend = MockBackend()
    report = assess_feasibility(
        "img://1", "a dense lesion is visible; patient survival improved", backend)
    assert "a dense lesion is visible" in report.feasible()
    assert "patient survival improved" in report.not_feasible()


def test_mock_assess_reply_is_the_saxutils_document():
    caption = ("a < b & c > d; p< 5 with improved survival; the FOLLOW-UP scan; "
               "a \"quoted\" 'label' &amp; more")
    rows = []
    for feat in split_atomic_features(caption):
        lowered = feat.lower()
        if any(marker in lowered for marker in longcap.NOT_VISUAL_MARKERS):
            label, why = "NOT_FEASIBLE", "not verifiable from the image alone"
        else:
            label, why = "FEASIBLE", "directly visible in the image"
        rows.append(f"  <feature label={quoteattr(label)} "
                    f"rationale={quoteattr(why)}>{escape(feat)}</feature>")
    prompt = longcap.ASSESS_TEMPLATE.format(caption=caption)
    assert MockBackend().generate(prompt) == "<features>\n" + "\n".join(rows) + "\n</features>"
    report = assess_feasibility("img://1", caption, MockBackend())
    assert report.not_feasible() == ["p< 5 with improved survival", "the FOLLOW-UP scan"]


SECTION_CASES = [
    "CAPTION:\nfirst line\nsecond line\nABSTRACT:\nmore\n",       # header at the start
    "TASK: x\nintro\nCAPTION:\n  padded  \n\nNEXT:\n",             # header in the middle
    "TASK: x\nno such header here\n",                                # missing header
    "xCAPTION:\nnot at a line start\n",
    "CAPTION: inline\nnot a header line\n",
    "CAPTION:\nkept\n  indented:\nstill kept\nends here:\ngone\n",  # a line ending in ':'
    "CAPTION:\nkept\n:\n::\ngone\n",
    "CAPTION:\r\ncarriage return after the header\n",
    "CAPTION:\nkept\r\nHEAD:\r\nstill kept: \r\n",
    "CAPTION:\ntrailing section with no next header",
    "CAPTION:\n",
    "CAPTION:\nNEXT:\nan empty section",
    "intro\nCAPTION:",
    "CAPTION:\nfirst\nCAPTION:\nsecond\n",
    "ABSTRACT:\nCAPTION:\nafter an empty section\nX:",
]


@pytest.mark.parametrize("prompt", SECTION_CASES)
def test_section_matches_the_regex(prompt):
    assert longcap._section(prompt, "CAPTION") == reference_section(prompt, "CAPTION")


def test_section_matches_the_regex_on_templates_and_fuzzed_prompts():
    record = fixture_caption_records()[2]
    prompts = [longcap.AUGMENT_TEMPLATE.format(caption=record.caption, mentions="a\nb:",
                                               abstract=record.abstract, acronyms="CXR = x"),
               longcap.ASSESS_TEMPLATE.format(caption="a; b"),
               longcap.REFINE_TEMPLATE.format(caption="c", feasible="- a", not_feasible="")]
    rng = random.Random(7)
    pieces = ["CAPTION", "FEASIBLE", ":", "\n", "\r", " ", "a", "-", "X:"]
    prompts += ["".join(rng.choices(pieces, k=rng.randrange(30))) for _ in range(3000)]
    for prompt in prompts:
        for header in ("CAPTION", "FEASIBLE", "INLINE MENTIONS", "ABSTRACT"):
            assert longcap._section(prompt, header) == reference_section(prompt, header), prompt


# -- step 3: refine ---------------------------------------------------------------


def report_of(*pairs):
    return FeasibilityReport(tuple(
        FeatureJudgment(text=t, label=l) for t, l in pairs))


def test_refine_all_feasible_keeps_content():
    report = report_of(("a cell with a nucleus", "FEASIBLE"))
    out = refine_caption("a cell with a nucleus", report, MockBackend())
    assert "a cell with a nucleus" in out


def test_refine_removes_not_feasible_text():
    report = report_of(("a cell is visible", "FEASIBLE"),
                       ("survival improved", "NOT_FEASIBLE"))
    out = refine_caption("a cell is visible; survival improved", report, MockBackend())
    assert "survival improved" not in out
    assert "a cell is visible" in out


def test_refine_empty_feasible_yields_generic_description():
    report = report_of(("survival improved", "NOT_FEASIBLE"))
    out = refine_caption("survival improved", report, MockBackend())
    assert out
    assert "survival improved" not in out


def test_refine_reprompts_then_fails_on_persistent_violation():
    report = report_of(("bad claim", "NOT_FEASIBLE"))
    backend = ScriptedBackend(["still has bad claim inside", "bad claim again"])
    with pytest.raises(ParseFailure, match="blocked"):
        refine_caption("bad claim", report, backend)
    assert len(backend.requests) == 2


def test_blank_refine_reply_gets_the_repair_reprompt():
    report = report_of(("a cell", "FEASIBLE"))
    backend = ScriptedBackend([" \n", "a cell"])
    assert refine_caption("a cell", report, backend) == "a cell"
    assert [p.endswith(REPAIR_SUFFIX) for p in backend.requests] == [False, True]


@pytest.mark.parametrize("blank", ["", " \n\t"])
def test_second_blank_refine_reply_fails_the_record_at_refine(blank):
    class BlankRefine(MockBackend):
        refines = 0

        def generate(self, prompt, image_ref=None):
            if prompt.startswith("TASK: refine"):
                self.refines += 1
                return blank
            return super().generate(prompt, image_ref)

    backend = BlankRefine()
    out = run_pipeline(fixture_caption_records()[:1], backend, max_workers=1)
    (result,) = out.results
    assert (result.status, result.caption) == ("failed", "")
    assert result.stage == "refine: refined caption is blank"
    assert backend.refines == 2


# -- step 4: acronyms --------------------------------------------------------------


def test_expand_acronym_first_occurrence():
    out = expand_acronyms("CXR shows opacity", {"CXR": "chest X-ray"})
    assert out == "chest X-ray (CXR) shows opacity"


def test_expand_later_occurrences_unchanged():
    out = expand_acronyms("CXR then CXR again", {"CXR": "chest X-ray"})
    assert out == "chest X-ray (CXR) then CXR again"


def test_expand_empty_map_no_change():
    assert expand_acronyms("CXR shows opacity", {}) == "CXR shows opacity"


def test_expand_respects_word_boundaries():
    assert expand_acronyms("SCXRT protocol", {"CXR": "chest X-ray"}) == "SCXRT protocol"


def test_expand_rejects_empty_expansion():
    with pytest.raises(UsageError):
        expand_acronyms("CXR", {"CXR": ""})


def test_expand_inserts_backslash_expansion_literally():
    expansion = r"comp\d \1 \g<0>"
    assert expand_acronyms("CXR shows", {"CXR": expansion}) == expansion + " (CXR) shows"
    result = process_record(simple_record(caption="HE stain of a cell",
                                          acronym_map={"HE": expansion}), MockBackend())
    assert result.status == "done"
    assert expansion + " (HE)" in result.caption


def test_expansion_present_for_every_occurring_acronym():
    acronyms = {"CT": "computed tomography", "MRI": "magnetic resonance imaging"}
    out = expand_acronyms("CT and MRI and CT", acronyms)
    for acro, expansion in acronyms.items():
        if acro in out:
            assert expansion in out


# -- pipeline -----------------------------------------------------------------------


def test_pipeline_runs_fixture_deterministically(tmp_path):
    records = fixture_caption_records()
    out1 = run_pipeline(records, MockBackend(), max_workers=4)
    out2 = run_pipeline(records, MockBackend(), max_workers=4)
    assert [r.id for r in out1.results] == [f"fix-{i:02d}" for i in range(10)]
    assert out1 == out2
    assert all(r.status == "done" for r in out1.results)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_output_corpus(out1, p1)
    write_output_corpus(out2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_pipeline_no_refined_caption_contains_blocked_feature():
    records = fixture_caption_records()
    backend = MockBackend()
    out = run_pipeline(records, backend, max_workers=1)
    by_id = {r.id: r for r in out.results}
    for rec in records:
        from longctx.longcap import assess_feasibility, augment_caption
        probe = MockBackend()
        report = assess_feasibility(rec.image_ref,
                                    augment_caption(rec, probe), probe)
        final = by_id[rec.id].caption
        for blocked in report.not_feasible():
            assert blocked not in final


def test_pipeline_resume_sends_no_duplicate_requests(tmp_path):
    records = fixture_caption_records()
    journal = tmp_path / "journal.jsonl"
    first = MockBackend()
    partial = run_pipeline(records[:5], first, journal_path=journal, max_workers=2)
    assert all(r.status == "done" for r in partial.results)
    requests_before = len(first.requests)
    assert requests_before > 0
    second = MockBackend()
    full = run_pipeline(records, second, journal_path=journal, max_workers=2)
    assert len(full.results) == 10
    done_ids = {r.id for r in full.results if r.status == "done"}
    assert len(done_ids) == 10
    # records 1-5 were journaled: only the remaining 5 hit the backend
    per_record = requests_before / 5
    assert len(second.requests) == pytest.approx(5 * per_record)
    touched = "\n".join(second.requests)
    for rec in records[:5]:
        assert rec.caption not in touched


def test_pipeline_continues_past_single_record_failure():
    records = fixture_caption_records()[:3]

    class FlakyBackend(MockBackend):
        def generate(self, prompt, image_ref=None):
            if image_ref == "img://01":
                raise BackendError("boom", attempts=3)
            return super().generate(prompt, image_ref)

    out = run_pipeline(records, FlakyBackend(), max_workers=1)
    statuses = {r.id: r.status for r in out.results}
    assert statuses["fix-01"] == "failed"
    assert statuses["fix-00"] == "done" and statuses["fix-02"] == "done"
    assert out.failure_rate == pytest.approx(1 / 3)
    failed = {r.id: r for r in out.results}["fix-01"]
    assert failed.stage.startswith("augment")


def test_pipeline_output_longer_than_input_on_fixture():
    from longctx.tokenizer import content_ids, train_bpe
    records = fixture_caption_records()
    out = run_pipeline(records, MockBackend(), max_workers=2)
    vocab = train_bpe([r.caption for r in records], vocab_size=300)
    inp = [len(content_ids(vocab, r.caption)) for r in records]
    by_id = {r.id: r for r in out.results}
    outp = [len(content_ids(vocab, by_id[r.id].caption)) for r in records]
    assert sum(outp) / len(outp) > sum(inp) / len(inp)


def test_pipeline_low_content_flag():
    record = simple_record(caption="patient survival improved")
    out = run_pipeline([record], MockBackend(), max_workers=1)
    assert out.results[0].low_content
    assert out.results[0].status == "done"


def test_pipeline_rejects_duplicates_and_empty():
    with pytest.raises(UsageError, match="empty"):
        run_pipeline([], MockBackend())
    rec = simple_record()
    with pytest.raises(UsageError, match="duplicate"):
        run_pipeline([rec, rec], MockBackend())
    with pytest.raises(UsageError, match="workers"):
        run_pipeline([rec], MockBackend(), max_workers=0)


def test_caption_record_files_round_trip(tmp_path):
    records = fixture_caption_records()
    path = tmp_path / "records.jsonl"
    write_caption_records(records, path)
    loaded = read_caption_records(path)
    assert loaded == records


def test_journal_round_trip(tmp_path):
    records = fixture_caption_records()[:2]
    journal = tmp_path / "j.jsonl"
    run_pipeline(records, MockBackend(), journal_path=journal, max_workers=1)
    entries = read_journal(journal)
    assert {e.id for e in entries} == {"fix-00", "fix-01"}
    assert all(e.template_version == "v2" for e in entries)


def test_journal_opened_once_and_each_line_readable_during_the_run(tmp_path, monkeypatch):
    records = fixture_caption_records()
    journal = tmp_path / "journal.jsonl"
    writes, seen = [], []
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and os.fspath(file) == str(journal) and mode != "r":
            writes.append(mode)
        return real_open(file, mode, *args, **kwargs)

    class Peeking(MockBackend):
        def generate(self, prompt, image_ref=None):
            if prompt.startswith("TASK: augment"):
                seen.append(journal.read_text() if journal.exists() else "")
            return super().generate(prompt, image_ref)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    run_pipeline(records, Peeking(), journal_path=journal, max_workers=1)
    assert len(writes) == 1
    # record k starts with the k earlier results on disk as complete lines
    for k, text in enumerate(seen):
        assert text.count("\n") == k and text.endswith("\n") == (k > 0)
        assert [json.loads(line)["id"] for line in text.splitlines()] == [
            r.id for r in records[:k]]


def test_shared_journal_handle_keeps_lines_whole_under_many_workers(tmp_path):
    base = fixture_caption_records()
    records = [dataclasses.replace(base[n % len(base)], id=f"r{n:03d}") for n in range(200)]
    journal = tmp_path / "journal.jsonl"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        run_pipeline(records, MockBackend(), journal_path=journal, max_workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - start < 60
    assert sorted(e.id for e in read_journal(journal)) == [r.id for r in records]


def test_resume_from_torn_final_journal_line(tmp_path):
    records = fixture_caption_records()
    journal = tmp_path / "journal.jsonl"
    first = MockBackend()
    run_pipeline(records[:4], first, journal_path=journal, max_workers=1)
    lines = journal.read_text().splitlines(keepends=True)
    journal.write_text("".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2])
    second = MockBackend()
    full = run_pipeline(records, second, journal_path=journal, max_workers=1)
    assert all(r.status == "done" for r in full.results) and len(full.results) == 10
    # the three complete lines are not sent again; the torn record is
    assert len(second.requests) == len(first.requests) / 4 * 7
    touched = "\n".join(second.requests)
    assert all(rec.caption not in touched for rec in records[:3])
    assert records[3].caption in touched
    assert sorted(e.id for e in read_journal(journal)) == [r.id for r in records]


def test_a_torn_journal_line_longer_than_a_read_block_is_cut(tmp_path):
    journal = tmp_path / "journal.jsonl"
    run_pipeline(fixture_caption_records()[:3], MockBackend(), journal_path=journal,
                 max_workers=1)
    complete = journal.read_bytes()
    journal.write_bytes(complete + b'{"id": "x", "caption": "' + b"y" * 200_000)
    assert len(read_journal(journal)) == 3
    assert journal.read_bytes() == complete
    journal.write_bytes(b"z" * 200_000)
    assert read_journal(journal) == [] and journal.read_bytes() == b""


def test_torn_interior_journal_line_is_data_error(tmp_path):
    journal = tmp_path / "journal.jsonl"
    run_pipeline(fixture_caption_records()[:3], MockBackend(), journal_path=journal,
                 max_workers=1)
    lines = journal.read_text().splitlines(keepends=True)
    journal.write_text(lines[0] + lines[1][:20] + "\n" + lines[2])
    with pytest.raises(DataError, match="line 2"):
        read_journal(journal)
    for bad in (b'{"id": "x"}', b"\xff\xfe"):
        journal.write_bytes(lines[0].encode() + bad + b"\n")
        with pytest.raises(DataError, match="line 2"):
            read_journal(journal)


def test_make_backend_descriptors():
    assert isinstance(make_backend("mock"), MockBackend)
    http = make_backend("http://localhost:9/model")
    assert http.endpoint.endswith("/model")
    with pytest.raises(UsageError):
        make_backend("carrier-pigeon")


def test_mock_backend_refuses_an_unknown_task():
    # it used to echo the prompt's last line as a reply
    with pytest.raises(BackendError, match="unknown task 'summarize'"):
        MockBackend().generate("TASK: summarize\nCAPTION:\na cell")


def test_split_atomic_features():
    parts = split_atomic_features("a cell; a nucleus. survival improved")
    assert parts == ["a cell", "a nucleus", "survival improved"]


def test_caption_record_requires_caption():
    with pytest.raises(UsageError):
        CaptionRecord(id="x", image_ref="i", caption="")


# -- HTTP backend retries -----------------------------------------------------------


def _reply(status, text="generated"):
    resp = requests.Response()
    resp.status_code = status
    resp._content = text if isinstance(text, bytes) else text.encode()
    resp.url = "http://backend.test/generate"
    return resp


@pytest.fixture
def scripted_http(monkeypatch):
    """Scripts ``requests.post`` replies and records the prompts posted and
    the backoff sleeps; no request leaves the process.  A script item that
    is a function is called with the prompt for the reply."""
    script, sleeps, posted = [], [], []

    def post(url, **kwargs):
        prompt = kwargs["json"]["prompt"]
        posted.append(prompt)
        item = script.pop(0)
        if callable(item):
            item = item(prompt)
        if isinstance(item, Exception):
            raise item
        return item

    monkeypatch.setattr(requests, "post", post)  # the backend imports requests per call
    monkeypatch.setattr(longcap.time, "sleep", sleeps.append)
    return script, sleeps, posted


def test_http_4xx_fails_at_once(scripted_http):
    script, sleeps, posted = scripted_http
    script += [_reply(404), _reply(200)]
    backend = HttpBackend("http://backend.test/generate")
    with pytest.raises(BackendError, match="404") as info:
        backend.generate("TASK: augment")
    assert info.value.attempts == 1
    assert sleeps == [] and posted == ["TASK: augment"]


def test_http_5xx_and_connection_errors_are_retried(scripted_http):
    script, sleeps, _ = scripted_http
    script += [_reply(503), requests.ConnectionError("reset"), _reply(200, "ok")]
    backend = HttpBackend("http://backend.test/generate")
    assert backend.generate("p") == "ok"
    assert sleeps == [0.5, 1.0] and script == []


def test_http_backoff_and_attempts_reported(scripted_http):
    script, sleeps, posted = scripted_http
    script += [requests.Timeout("slow")] * 4
    backend = HttpBackend("http://backend.test/generate")
    with pytest.raises(BackendError, match="after 3 attempts") as info:
        backend.generate("p")
    assert info.value.attempts == 3
    assert sleeps == [0.5, 1.0] and posted == ["p"] * 3


MALFORMED_REPLIES = {
    "empty": "",
    "whitespace": " \n\t ",
    "non-xml": "this is not xml at all",
    "truncated-xml": '<features><feature label="FEASIBLE" rationale="ok">a ce',
    "empty-features": "<features/>",
    "non-utf8": b"\xff\xfe\xfa\x80 \xc3\x28 \xa0\xa1",
    "2mb": "x" * 2_000_000,
    # well-formed but for the lone surrogate, which is neither text nor XML
    "lone-surrogate": '<features><feature label="FEASIBLE" rationale="ok">a \ud800 cell'
                      '</feature></features>',
}
GOOD_REPLIES = {
    "augment": "a cell with a dark nucleus",
    "assess": '<features><feature label="FEASIBLE" rationale="ok">a cell</feature></features>',
    "refine": "a cell with a dark nucleus",
}


@pytest.mark.parametrize("stage", GOOD_REPLIES)
@pytest.mark.parametrize("reply", MALFORMED_REPLIES)
def test_a_malformed_reply_fails_at_its_stage_or_yields_a_valid_caption(
        scripted_http, tmp_path, reply, stage):
    script, _, posted = scripted_http
    bad = MALFORMED_REPLIES[reply]

    def answer(prompt):
        task = prompt.split("\n", 1)[0].removeprefix("TASK: ")
        return bad if task == stage else GOOD_REPLIES[task]

    # three steps, each with at most one repair reprompt
    if reply == "lone-surrogate":
        # requests decodes a body with replacement, so only a backend of
        # another kind can return a lone surrogate
        backend = ScriptedBackend([answer] * 6)
        posted = backend.requests
    else:
        script += [lambda prompt: _reply(200, answer(prompt))] * 6
        backend = HttpBackend("http://backend.test/generate")
    journal = tmp_path / "journal.jsonl"
    out = run_pipeline([simple_record()], backend, journal_path=journal, max_workers=1)
    (result,) = out.results
    assert read_journal(journal) == out.results
    # only the assess parser refuses a reply that is not blank and is text
    if stage == "assess" or not bad.strip() or reply == "lone-surrogate":
        assert result.status == "failed" and result.stage.startswith(f"{stage}: ")
        asked = [p.split("\n", 1)[0] for p in posted]
        assert asked[-2:] == [f"TASK: {stage}"] * 2 and asked.count(f"TASK: {stage}") == 2
        assert posted[-1] == posted[-2] + REPAIR_SUFFIX
    else:
        assert result.status == "done"
        CaptionRecord(id=result.id, image_ref="img://1", caption=result.caption)


def test_request_log_keeps_every_prompt_across_threads():
    log = MockBackend()
    prompt = "TASK: refine\n{}:{}"  # a prompt for no known task is refused
    threads = [threading.Thread(target=lambda i=i: [log.generate(prompt.format(i, n))
                                                    for n in range(2000)])
               for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(log.requests) == sorted(prompt.format(i, n)
                                         for i in range(8) for n in range(2000))
