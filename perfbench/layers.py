"""The traced in-process run: spans around calls into each module's public functions.

Spans live in memory and are written out when the run ends. Per-layer
metrics are derived from them: work per second of a layer's spans, and each
layer's self time (span duration minus the part its child spans cover). The
same suite also runs with tracing off; the ratio of the two wall times is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import re
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from harness import Cli, OpLog, sha256_file, summarize
from workloads import LABELS, PROBE_ROUTE_LINES, Fixture, expect_empty, expect_version, filter_commands

from translitkit import bpe, codebook, freqanalysis, langid, metrics, translit
from translitkit.pipeline import Pipeline

# Layers that get their own metrics, by module name.
MODULES = ("translit", "cli", "codebook", "bpe", "langid", "pipeline", "freqanalysis", "metrics")

_PRESERVED_RUN = re.compile(r"[A-Za-z@]+")
_CLI_REPEATS = 3


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    count: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; disabled, `span` returns a shared no-op context."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._null = contextlib.nullcontext()

    def span(self, name: str, count: int = 1):
        return self._record(name, count) if self.enabled else self._null

    @contextlib.contextmanager
    def _record(self, name: str, count: int):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, name, time.perf_counter(), 0.0, parent, self.run, count)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def of_run(self, run: int) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per module: each span's duration minus its children's, summed by name prefix."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name.split(".")[0]] += s.duration - child[s.id]
    return dict(out)


def _sum(spans: list[Span], name: str) -> tuple[float, int]:
    picked = [s for s in spans if s.name == name]
    return sum(s.duration for s in picked), sum(s.count for s in picked)


@dataclass
class Prepared:
    """Inputs of the suite computed once, outside every timed region."""

    text: str
    text_bytes: int
    encoded_lines: list[str]
    encoded_text: str
    route_texts: list[str]
    labeled_route: list[tuple[str, str]]
    route_cb: codebook.Codebook
    bpe_bytes: int
    chars: list[int]


def prepare(fx: Fixture) -> Prepared:
    """The route probe is the first PROBE_ROUTE_LINES route lines on every workload."""
    cb = codebook.load_path(str(fx.codebook))
    route = fx.route[:PROBE_ROUTE_LINES]
    encode = translit.translator(cb)
    encoded_lines = [encode(line) for line in fx.lines]
    text = "\n".join(fx.lines)
    return Prepared(
        text=text,
        text_bytes=len(text.encode("utf-8")),
        encoded_lines=encoded_lines,
        encoded_text="\n".join(encoded_lines),
        route_texts=[t for t, _ in route],
        labeled_route=[(t, lab) for t, lab in route if lab is not None],
        route_cb=codebook.load_path(str(fx.route_codebook)),
        bpe_bytes=sum(len(line.encode("utf-8")) for line in fx.bpe_lines),
        chars=[e.codepoint for e in cb.entries],
    )


def suite(fx: Fixture, prep: Prepared, tr: Tracer) -> tuple[dict, dict[str, str | None]]:
    """One pass over every layer.

    Returns the deterministic results it computed, and per check of an output
    against its inputs, None or what went wrong.
    """
    span = tr.span
    errors: dict[str, str | None] = {}
    n_lines = len(fx.lines)
    with span("freqanalysis.scan_file"):
        freqanalysis.scan_file(str(fx.corpus))

    with span("codebook.load_path"):
        cb = codebook.load_path(str(fx.codebook))
    with span("codebook.build_basic"):
        codebook.build_basic(prep.chars, fx.profile)

    with span("translit.translator"):
        encode = translit.translator(cb)
    with span("translit.encode"):
        encoded_text = encode(prep.text)
    with span("translit.decode"):
        decoded = translit.decode(encoded_text, cb).text
    with span("translit.encode_lines", n_lines):
        for line in fx.lines:
            encode(line)
    with span("translit.decode_lines", n_lines):
        restored = [translit.decode(line, cb).text for line in prep.encoded_lines]
    with span("translit.verify_roundtrip", n_lines):
        report = translit.verify_roundtrip(fx.lines, cb)
    errors["suite.translit"] = None
    if encoded_text != prep.encoded_text or decoded != prep.text or restored != fx.lines:
        errors["suite.translit"] = "in-process round trip does not restore the corpus"
    elif report.failures:
        errors["suite.translit"] = f"verify_roundtrip reports {report.failures} failures"

    with span("bpe.train"):
        model = bpe.train(fx.bpe_lines, fx.vocab)
    fresh = bpe.BpeModel(model.vocab, model.merges)  # empty word cache
    with span("bpe.tokenize", prep.bpe_bytes):
        for line in fx.bpe_lines:
            fresh.tokenize(line)
    with span("codebook.build_tokenizer_optimized"):
        tok_cb = codebook.build_tokenizer_optimized(
            prep.chars, fx.profile, bpe.BpeModel(model.vocab, model.merges)
        )
    originals = fx.lines[: len(fx.bpe_lines)]
    with span("metrics.token_compression"):
        _, _, token_ratio = metrics.token_compression(
            originals, fx.bpe_lines, bpe.BpeModel(model.vocab, model.merges)
        )

    with span("langid.load_model"):
        model_in = langid.load_model(str(fx.models[0]))
    with span("langid.load_model"):
        model_out = langid.load_model(str(fx.models[1]))
    with span("langid.predict", len(prep.route_texts)):
        for text in prep.route_texts:
            langid.predict(text, model_in)
    params = dataclasses.replace(langid.TrainingParams.input_defaults(), epochs=1)
    with span("langid.train", len(fx.labeled)):
        langid.train(fx.labeled, params, labels=LABELS)
    with span("langid.evaluate", len(prep.labeled_route)):
        macro_f1 = langid.evaluate(prep.labeled_route, model_in)["macro_f1"]

    pipe = Pipeline(prep.route_cb, model_in, model_out)
    results = []
    with span("pipeline.batch", len(prep.route_texts)):
        batch = pipe.batch(prep.route_texts)
        for _ in prep.route_texts:
            with span("pipeline.line"):
                results.append(next(batch))
    unrestored = sum(final != text for (final, _), text in zip(results, prep.route_texts))
    errors["suite.pipeline"] = (
        f"{unrestored} of {len(results)} lines differ from the identity pipeline's input"
        if unrestored else None
    )
    stage_outputs = [trace.model_stage_output for _, trace in results]
    with span("langid.predict_output", len(stage_outputs)):
        for text in stage_outputs:
            langid.predict(text, model_out)
    return {
        "codebook.single_token_count": tok_cb.single_token_count,
        "langid.macro_f1": macro_f1,
        "bpe.merges": len(model.merges),
        "metrics.token_ratio": token_ratio,
        "pipeline.encoded_share": sum(t.encoded for _, t in results) / len(results),
        "pipeline.unrestored_lines": unrestored,
    }, errors


def suite_metrics(fx: Fixture, prep: Prepared, spans: list[Span], det: dict) -> dict[str, float]:
    """Per-layer metrics of one traced suite pass."""
    t = {name: _sum(spans, name) for name in {s.name for s in spans}}
    batch_s, n_route = t["pipeline.batch"]
    lines_us = sorted(s.duration * 1e6 for s in spans if s.name == "pipeline.line")
    train_s, _ = t["bpe.train"]
    load_s = [s.duration for s in spans if s.name == "langid.load_model"]
    out = {
        "translit.encode_mb_s": prep.text_bytes / t["translit.encode"][0] / 1e6,
        "translit.decode_mb_s": len(prep.encoded_text.encode("utf-8")) / t["translit.decode"][0] / 1e6,
        "translit.decode_lines_s": len(fx.lines) / t["translit.decode_lines"][0],
        "translit.verify_lines_s": len(fx.lines) / t["translit.verify_roundtrip"][0],
        "codebook.load_s": t["codebook.load_path"][0],
        "codebook.build_basic_s": t["codebook.build_basic"][0],
        "codebook.build_tokenizer_s": t["codebook.build_tokenizer_optimized"][0],
        "bpe.train_s": train_s,
        "bpe.merges_per_s": det["bpe.merges"] / train_s,
        "bpe.tokenize_mb_s": prep.bpe_bytes / t["bpe.tokenize"][0] / 1e6,
        "langid.load_s": statistics.median(load_s),
        "langid.predict_lines_s": t["langid.predict"][1] / t["langid.predict"][0],
        "langid.train_epoch_s": t["langid.train"][0],
        "pipeline.batch_lines_s": n_route / batch_s,
        "pipeline.line_p50_us": statistics.median(lines_us),
        "pipeline.line_p99_us": statistics.quantiles(lines_us, n=100)[98],
        "pipeline.classify_share": (t["langid.predict"][0] + t["langid.predict_output"][0]) / batch_s,
        "pipeline.batch_s": batch_s,  # the base of classify_share; kept in the record only
        "freqanalysis.scan_mb_s": fx.corpus.stat().st_size / t["freqanalysis.scan_file"][0] / 1e6,
        "metrics.token_compression_s": t["metrics.token_compression"][0],
    }
    for module, seconds in self_times(spans).items():
        if module in MODULES:
            out[f"{module}.self_s"] = seconds
    return out


def input_counts(fx: Fixture, prep: Prepared) -> dict[str, float]:
    """Counts the benchmark computes from its own inputs, independent of the program."""
    mapped = set(prep.chars)
    chars = sum(len(line) for line in fx.lines)
    hits = sum(1 for line in fx.lines for ch in line if ord(ch) in mapped)
    runs = sum(len(_PRESERVED_RUN.findall(line)) for line in fx.lines)
    return {"translit.mapped_char_share": hits / chars if chars else 0.0, "translit.preserved_runs": runs}


def cli_metrics(fx: Fixture, cli: Cli, log: OpLog, tr: Tracer, spans: list[Span], empty: Path) -> dict:
    """Start-up, and CLI wall time left over once start-up and the in-process work are taken out."""
    startup, setup = [], []
    for i in range(_CLI_REPEATS):
        with tr.span("cli.version"):
            startup.append(log.add(expect_version(cli.run(f"version{i}", ["--version"]))).wall_s)
        with tr.span("cli.encode_empty"):
            setup.append(log.add(expect_empty(
                cli.run(f"empty{i}", ["encode", "--codebook", str(fx.codebook)], empty)
            )).wall_s)
    digests = {"corpus": sha256_file(fx.corpus), "encoded": sha256_file(fx.encoded)}
    with tr.span("cli.filters"):
        filter_commands(fx, cli, log, digests, fx.codebook, fx.encoded)
    walls = [r.wall_s for r in log.results[-3:]]
    inproc = [
        _sum(spans, name)[0]
        for name in ("translit.encode_lines", "translit.decode_lines", "translit.verify_roundtrip")
    ]
    overhead = sum(walls) - sum(inproc) - 3 * statistics.median(setup)
    return {"cli.startup_s": statistics.median(startup), "cli.stream_overhead_s": overhead}


def traced_run(fx: Fixture, cli: Cli, log: OpLog, seconds: float, spans_path: Path) -> tuple[dict, dict, dict]:
    """Alternate untraced and traced suite passes for `seconds`, then the CLI probes.

    The output checks of every traced pass are operations in `log`, so a wrong
    result is counted as a failure and the run still reports its metrics.
    Returns (per-layer metrics, deterministic values, details for the record).
    """
    prep = prepare(fx)
    tr = Tracer()
    bare = Tracer(enabled=False)
    traced_wall, bare_wall, samples = [], [], defaultdict(list)
    det: dict = {}

    def untraced() -> None:
        t0 = time.perf_counter()
        suite(fx, prep, bare)
        bare_wall.append(time.perf_counter() - t0)

    def traced() -> tuple[dict, dict]:
        tr.run += 1
        t0 = time.perf_counter()
        with tr.span("bench.suite"):
            result = suite(fx, prep, tr)
        traced_wall.append(time.perf_counter() - t0)
        return result

    start = time.perf_counter()
    suite(fx, prep, bare)  # warm-up: the first pass is slower, and would skew its pair
    while True:
        # Pairs alternate which side runs first, so warm caches favour neither.
        if len(traced_wall) % 2 == 0:
            untraced()
            values, errors = traced()
        else:
            values, errors = traced()
            untraced()
        for name, error in errors.items():
            log.check(name, error)
        if det:
            changed = f"deterministic results {values} differ from {det}" if values != det else None
            log.check("suite.repeat", changed)
        det = values
        for name, value in suite_metrics(fx, prep, tr.of_run(tr.run), det).items():
            samples[name].append(value)
        if time.perf_counter() - start >= seconds:
            break
    last = tr.of_run(tr.run)
    tr.run += 1
    empty = fx.work / "empty.txt"
    empty.write_bytes(b"")
    with tr.span("bench.cli"):
        cli_values = cli_metrics(fx, cli, log, tr, last, empty)
    counts = input_counts(fx, prep)

    layer = {name: statistics.median(vals) for name, vals in samples.items()}
    layer.update(cli_values)
    layer.update(counts)
    layer["codebook.single_token_count"] = det["codebook.single_token_count"]
    layer["langid.macro_f1"] = det["langid.macro_f1"]
    layer["pipeline.encoded_share"] = det["pipeline.encoded_share"]
    layer["cli.self_s"] = self_times(tr.of_run(tr.run)).get("cli", 0.0)
    # The two passes of a pair run back to back, so pairing them cancels slow drift.
    layer["trace.overhead_share"] = statistics.median(t / b for t, b in zip(traced_wall, bare_wall)) - 1.0
    tr.write(spans_path)
    details = {
        "suite_passes": len(traced_wall),
        "traced_wall_s": summarize(traced_wall),
        "untraced_wall_s": summarize(bare_wall),
        "span_count": len(tr.spans),
        "spans_file": str(spans_path),
        "per_layer_samples": {name: summarize(vals) for name, vals in samples.items()},
    }
    deterministic = {**det, **counts}
    return layer, deterministic, details
