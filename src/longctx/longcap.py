"""Caption-augmentation pipeline against a pluggable generation backend.

Four steps per record: (1) augment the caption with article context, (2) ask
the backend to label each atomic caption feature FEASIBLE / NOT_FEASIBLE as
an XML document, (3) rewrite keeping only feasible features, (4) expand
acronyms by rule.  Records fail individually (the run always continues) and
an append-only journal makes reruns idempotent: records already done are
never re-sent to the backend.

Prompt templates are versioned artifacts; every output records the version
it was produced with.
"""

from __future__ import annotations

import os
import re
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from .data import json_line, object_field, read_json_lines, string_list_field
from .errors import DataError, UsageError

TEMPLATE_VERSION = "v1"

AUGMENT_TEMPLATE = """TASK: augment
Rewrite the figure caption below into a longer, self-contained image
description.  Use only the provided context; do not invent facts.

CAPTION:
{caption}

INLINE MENTIONS:
{mentions}

ABSTRACT:
{abstract}

ACRONYMS:
{acronyms}
"""

ASSESS_TEMPLATE = """TASK: assess
Split the caption below into atomic features (one visually checkable
assertion each).  Judge whether each feature can be discerned from the image
alone, without external sources or information not visually present, unless
text is explicitly overlaid on the image.  Reply with an XML document only:
<features>
  <feature label="FEASIBLE|NOT_FEASIBLE" rationale="...">feature text</feature>
</features>

CAPTION:
{caption}
"""

REFINE_TEMPLATE = """TASK: refine
Rewrite the caption so it keeps only the FEASIBLE features listed below,
removing or rewording everything else.  If no features are feasible, reply
with a minimal generic image description.

CAPTION:
{caption}

FEASIBLE:
{feasible}

NOT_FEASIBLE:
{not_feasible}
"""

REPAIR_SUFFIX = """

The previous reply could not be parsed.  Reply again with exactly one
well-formed XML document in the schema shown above and nothing else.
"""

NOT_VISUAL_MARKERS = (
    "survival", "improved", "outcome", "prognosis", "efficacy", "mortality",
    "follow-up", "response rate", "p <", "p<", "significant", "history of",
)
_NOT_VISUAL_RE = re.compile("|".join(map(re.escape, NOT_VISUAL_MARKERS)))
# the mock's two verdicts, as XML attributes
_FEASIBLE_ATTRS = 'label="FEASIBLE" rationale="directly visible in the image"'
_NOT_FEASIBLE_ATTRS = 'label="NOT_FEASIBLE" rationale="not verifiable from the image alone"'


@dataclass(frozen=True)
class CaptionRecord:
    id: str
    image_ref: str
    caption: str
    inline_mentions: tuple[str, ...] = ()
    abstract: str = ""
    acronym_map: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.caption:
            raise UsageError(f"record {self.id!r}: caption must be nonempty")


@dataclass(frozen=True)
class FeatureJudgment:
    text: str
    label: str          # FEASIBLE | NOT_FEASIBLE


@dataclass(frozen=True)
class FeasibilityReport:
    features: tuple[FeatureJudgment, ...]

    def feasible(self):
        return [f.text for f in self.features if f.label == "FEASIBLE"]

    def not_feasible(self):
        return [f.text for f in self.features if f.label == "NOT_FEASIBLE"]


class BackendError(Exception):
    """Backend transport failure; ``attempts`` is how many requests were sent."""

    def __init__(self, message, attempts=1):
        super().__init__(message)
        self.attempts = attempts


class ParseFailure(Exception):
    """Backend reply was unusable even after the repair reprompt."""


# -- backends --------------------------------------------------------------------


class MockBackend:
    """Deterministic in-process stand-in for the generation model.

    Responses are a pure function of (prompt, image_ref, seed): augmentation
    echoes the caption plus its context, assessment labels features by a
    fixed non-visual marker list, refinement joins the feasible features.
    ``requests`` holds every prompt asked for, in arrival order across worker
    threads, for resume and determinism checks.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.requests: list[str] = []
        self._lock = threading.Lock()

    def generate(self, prompt: str, image_ref: str | None = None) -> str:
        with self._lock:
            self.requests.append(prompt)
        task = prompt.split("\n", 1)[0].removeprefix("TASK: ").strip()
        if task == "augment":
            return self._augment(prompt)
        if task == "assess":
            return self._assess(prompt)
        if task == "refine":
            return self._refine(prompt)
        return f"echo[{self.seed}]: {prompt.splitlines()[-1] if prompt else ''}"

    def _augment(self, prompt):
        caption = _section(prompt, "CAPTION")
        mentions = _section(prompt, "INLINE MENTIONS")
        abstract = _section(prompt, "ABSTRACT")
        parts = [caption]
        if mentions:
            parts.append(mentions.replace("\n", " "))
        if abstract:
            parts.append("Context: " + abstract.replace("\n", " "))
        return " ".join(p.strip() for p in parts if p.strip())

    def _assess(self, prompt):
        caption = _section(prompt, "CAPTION")
        features = split_atomic_features(caption)
        rows = []
        for feat in features:
            visual = _NOT_VISUAL_RE.search(feat.lower()) is None
            attrs = _FEASIBLE_ATTRS if visual else _NOT_FEASIBLE_ATTRS
            # XML-escaped as by xml.sax.saxutils.escape
            text = feat.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
            rows.append(f"  <feature {attrs}>{text}</feature>")
        return "<features>\n" + "\n".join(rows) + "\n</features>"

    def _refine(self, prompt):
        feasible = [ln[2:] for ln in _section(prompt, "FEASIBLE").splitlines()
                    if ln.startswith("- ")]
        if not feasible:
            return "An image without independently verifiable features."
        return ". ".join(feasible) + "."


# a line that is all header: no leading space, ends in a colon
_HEADER_LINE = re.compile(r"^\S[^\n]*:$", re.MULTILINE)


def _section(prompt: str, header: str) -> str:
    """The stripped text under the first line ``HEADER:``, up to the next
    header line or the end of the prompt; empty if there is no such line."""
    head = header + ":\n"
    if prompt.startswith(head):
        start = len(head)
    else:
        at = prompt.find("\n" + head)
        if at < 0:
            return ""
        start = at + 1 + len(head)
    end = _HEADER_LINE.search(prompt, start)
    return prompt[start:end.start() if end else len(prompt)].strip()


def split_atomic_features(caption: str) -> list[str]:
    """Sentence/clause split; the backend contract works on these pieces."""
    parts = re.split(r"[.;]\s*", caption)
    return [p.strip() for p in parts if p.strip()]


# up to three attempts, waiting 0.5 s before the second and 1 s before the third
HTTP_ATTEMPTS = 3
RETRY_BACKOFF_S = 0.5
HTTP_TIMEOUT_S = 60.0
TOKEN_ENV = "LONGCTX_BACKEND_TOKEN"


class HttpBackend:
    """POSTs the prompt (and an opaque image reference) to a text endpoint.

    Connection errors, timeouts and 5xx replies are retried after an
    exponential backoff; any other failure, a 4xx reply included, is final.
    """

    def __init__(self, endpoint: str):
        self.endpoint = endpoint

    def generate(self, prompt: str, image_ref: str | None = None) -> str:
        import requests  # ~0.1 s that the mock backend never pays

        headers = {}
        token = os.environ.get(TOKEN_ENV, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        payload = {"prompt": prompt}
        if image_ref:
            payload["image_ref"] = image_ref
        for attempt in range(1, HTTP_ATTEMPTS + 1):
            if attempt > 1:
                time.sleep(RETRY_BACKOFF_S * 2 ** (attempt - 2))
            try:
                resp = requests.post(self.endpoint, json=payload,
                                     headers=headers, timeout=HTTP_TIMEOUT_S)
                resp.raise_for_status()
                return resp.text
            except (requests.ConnectionError, requests.Timeout) as exc:
                last = exc
            except requests.HTTPError as exc:
                if resp.status_code < 500:
                    raise BackendError(f"backend {self.endpoint} refused: {exc}",
                                       attempts=attempt) from exc
                last = exc
            except requests.RequestException as exc:
                raise BackendError(f"backend {self.endpoint} failed: {exc}",
                                   attempts=attempt) from exc
        raise BackendError(f"backend {self.endpoint} failed after {attempt} attempts: {last}",
                           attempts=attempt)


def make_backend(descriptor: str, seed: int = 0):
    """``mock`` or an HTTP(S) endpoint URL."""
    if descriptor == "mock":
        return MockBackend(seed=seed)
    if descriptor.startswith(("http://", "https://")):
        return HttpBackend(descriptor)
    raise UsageError(f"unknown backend descriptor {descriptor!r}")


# -- the four steps ----------------------------------------------------------------


def augment_caption(record: CaptionRecord, backend) -> str:
    """Step 1: contextualize the caption with mentions/abstract/acronyms."""
    acronyms = "\n".join(f"{k} = {v}" for k, v in sorted(record.acronym_map.items()))
    prompt = AUGMENT_TEMPLATE.format(
        caption=record.caption,
        mentions="\n".join(record.inline_mentions),
        abstract=record.abstract,
        acronyms=acronyms,
    )
    return backend.generate(prompt, record.image_ref).strip()


def assess_feasibility(image_ref: str, caption: str, backend) -> FeasibilityReport:
    """Step 2: atomic features labeled FEASIBLE/NOT_FEASIBLE via XML reply.

    A malformed reply earns exactly one repair reprompt; a second failure
    raises ``ParseFailure``.
    """
    if not caption:
        raise UsageError("cannot assess an empty caption")
    prompt = ASSESS_TEMPLATE.format(caption=caption)
    reply = backend.generate(prompt, image_ref)
    try:
        return _parse_feature_xml(reply)
    except DataError:
        reply = backend.generate(prompt + REPAIR_SUFFIX, image_ref)
        try:
            return _parse_feature_xml(reply)
        except DataError as exc:
            raise ParseFailure(f"unparseable feasibility reply after repair: {exc}") from exc


def _parse_feature_xml(reply: str) -> FeasibilityReport:
    text = reply.strip()
    start = text.find("<features")
    if start >= 0:
        text = text[start:]
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise DataError(f"invalid XML: {exc}") from exc
    if root.tag != "features":
        raise DataError(f"expected <features> root, got <{root.tag}>")
    judged = []
    for el in root.iter("feature"):
        label = (el.get("label") or "").strip()
        if label not in ("FEASIBLE", "NOT_FEASIBLE"):
            raise DataError(f"bad feature label {label!r}")
        judged.append(FeatureJudgment(text=(el.text or "").strip(), label=label))
    if not judged:
        raise DataError("no <feature> elements found")
    return FeasibilityReport(features=tuple(judged))


def refine_caption(caption: str, report: FeasibilityReport, backend,
                   image_ref: str | None = None) -> str:
    """Step 3: rewrite keeping FEASIBLE features only, with one retry.

    The reply is validated: it must not be blank, and no NOT_FEASIBLE
    feature text may appear verbatim.
    """
    if not report.features:
        raise UsageError("feasibility report is empty")
    prompt = REFINE_TEMPLATE.format(
        caption=caption,
        feasible="\n".join(f"- {t}" for t in report.feasible()),
        not_feasible="\n".join(f"- {t}" for t in report.not_feasible()),
    )
    reply = backend.generate(prompt, image_ref).strip()
    if _refine_fault(reply, report):
        reply = backend.generate(prompt + REPAIR_SUFFIX, image_ref).strip()
        fault = _refine_fault(reply, report)
        if fault:
            raise ParseFailure(fault)
    return reply


def _refine_fault(reply: str, report: FeasibilityReport) -> str:
    """Why a stripped refine reply is unusable, or "" when it is usable."""
    if not reply:
        return "refined caption is blank"
    blocked = [t for t in report.not_feasible() if t and t in reply]
    return f"refined caption still contains blocked features: {blocked[:2]}" if blocked else ""


_ACRO_CACHE: dict = {}


def expand_acronyms(caption: str, acronym_map: dict) -> str:
    """Step 4 (rule-based): first word-boundary occurrence of each acronym
    becomes ``expansion (ACRONYM)``; later occurrences stay as they are."""
    for acro in sorted(acronym_map):
        expansion = acronym_map[acro]
        if not expansion:
            raise UsageError(f"empty expansion for acronym {acro!r}")
        pattern = _ACRO_CACHE.get(acro)
        if pattern is None:
            pattern = re.compile(rf"\b{re.escape(acro)}\b")
            _ACRO_CACHE[acro] = pattern
        # a function, not a template: expansions may hold backslashes
        replacement = f"{expansion} ({acro})"
        caption = pattern.sub(lambda _: replacement, caption, count=1)
    return caption


# -- pipeline ----------------------------------------------------------------------


@dataclass(frozen=True)
class RecordResult:
    id: str
    status: str                 # done | failed
    caption: str = ""
    stage: str = ""             # failure stage when status == failed
    low_content: bool = False
    template_version: str = TEMPLATE_VERSION


@dataclass
class LongCapCorpus:
    results: list[RecordResult]

    @property
    def failure_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.status == "failed" for r in self.results) / len(self.results)


def process_record(record: CaptionRecord, backend) -> RecordResult:
    """All four steps for one record; failures carry the stage name."""
    stage = "augment"
    try:
        augmented = augment_caption(record, backend)
        stage = "assess"
        report = assess_feasibility(record.image_ref, augmented, backend)
        stage = "refine"
        refined = refine_caption(augmented, report, backend, record.image_ref)
        stage = "expand"
        final = expand_acronyms(refined, record.acronym_map)
    except (BackendError, ParseFailure, UsageError) as exc:
        return RecordResult(id=record.id, status="failed", stage=f"{stage}: {exc}")
    return RecordResult(id=record.id, status="done", caption=final,
                        low_content=not report.feasible())


def check_workers(max_workers: int) -> None:
    if max_workers < 1:
        raise UsageError(f"workers must be at least 1, not {max_workers}")


def run_pipeline(corpus: list[CaptionRecord], backend,
                 journal_path=None, max_workers: int = 4) -> LongCapCorpus:
    """Process a corpus with at most ``max_workers`` in-flight records.

    The journal (line-delimited results) is both the progress log and the
    resume state: records present as ``done`` are returned as-is without any
    backend traffic.  It is opened once per run; each result line is
    flushed as it is appended, so a reader sees every complete line, and
    the file is fsynced once when the run ends.  Output ordering is by
    record id regardless of completion order.
    """
    if not corpus:
        raise UsageError("empty corpus")
    check_workers(max_workers)
    seen = set()
    for rec in corpus:
        if rec.id in seen:
            raise UsageError(f"duplicate record id {rec.id!r}")
        seen.add(rec.id)

    done: dict[str, RecordResult] = {}
    if journal_path and Path(journal_path).exists():
        for result in read_journal(journal_path):
            if result.status == "done":
                done[result.id] = result

    pending = [r for r in corpus if r.id not in done]
    journal_lock = threading.Lock()
    fresh: dict[str, RecordResult] = {}
    journal = Path(journal_path).open("a") if journal_path else None

    def handle(record):
        result = process_record(record, backend)
        if journal:
            with journal_lock:
                append_journal(journal, result)
        return result

    try:
        if max_workers <= 1 or len(pending) <= 1:
            for record in pending:
                fresh[record.id] = handle(record)
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                for result in pool.map(handle, pending):
                    fresh[result.id] = result
    finally:
        if journal:
            with journal:
                os.fsync(journal.fileno())

    merged = {**done, **fresh}
    ordered = [merged[rid] for rid in sorted(merged)]
    return LongCapCorpus(results=ordered)


# -- record and journal files --------------------------------------------------------


def read_caption_records(path) -> list[CaptionRecord]:
    """The records of ``path``; a repeated id is a ``DataError`` naming its line."""
    seen = set()

    def build(obj):
        record = CaptionRecord(
            id=str(obj["id"]),
            image_ref=str(obj.get("image_ref", "")),
            caption=str(obj["caption"]),
            inline_mentions=string_list_field(obj.get("inline_mentions", []), "inline_mentions"),
            abstract=str(obj.get("abstract", "")),
            acronym_map=object_field(obj.get("acronym_map", {}), "acronym_map"),
        )
        if record.id in seen:
            raise UsageError(f"duplicate record id {record.id!r}")
        seen.add(record.id)
        return record

    return read_json_lines(path, "caption record", build)


def write_caption_records(records, path) -> None:
    with Path(path).open("w") as fh:
        fh.writelines(json_line(vars(r)) for r in records)


def write_output_corpus(corpus: LongCapCorpus, path) -> None:
    with Path(path).open("w") as fh:
        fh.writelines(json_line(vars(r)) for r in corpus.results)


def append_journal(fh, result: RecordResult) -> None:
    """One result line onto the open journal ``fh``, flushed to the file."""
    fh.write(json_line(vars(result)))
    fh.flush()


def read_journal(path) -> list[RecordResult]:
    """The journaled results, in file order.

    Every append ends with a newline, so a final line without one was torn
    by a crash mid-append: it is cut from the file, so that the next append
    starts a line of its own, and its record is processed again.  A
    malformed complete line, or a missing file, is a ``DataError``.
    """
    if Path(path).exists():
        with open(path, "rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            complete = _through_last_newline(fh, size)
        if complete < size:
            os.truncate(path, complete)
    return read_json_lines(path, "journal entry", lambda obj: RecordResult(**obj))


def _through_last_newline(fh, end: int) -> int:
    """The length of ``fh``'s first ``end`` bytes up to and including their
    last newline, read backward 64 KiB at a time; 0 without one."""
    while end:
        start = max(0, end - (1 << 16))
        fh.seek(start)
        newline = fh.read(end - start).rfind(b"\n")
        if newline >= 0:
            return start + newline + 1
        end = start
    return 0
