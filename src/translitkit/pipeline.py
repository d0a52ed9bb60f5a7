"""Three-stage flow: classify input, transliterate, run a model stage, classify
output, restore script.

The model stage is pluggable: `identity` for testing/measurement, or an
external command taking UTF-8 text on stdin and answering one line on stdout
(exit 0).
Below the confidence threshold text passes through unmodified (fail-open).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import KW_ONLY, dataclass, field
from typing import Iterable, Iterator, Mapping

from . import codebook as codebook_mod
from . import langid, translit
from .codebook import Codebook
from .errors import StageError, TranslitError
from .langid import LangIdModel

LOW_RESOURCE_TAGS = frozenset({"bo", "mn", "ug"})

MODEL_STAGES = ("identity", "external")


@dataclass(kw_only=True)
class PipelineSettings:
    """The settings of a pipeline run, each with its default and its range."""

    model_stage: str = "identity"
    model_command: str | None = None
    decode_mode: str = "strict"
    confidence_threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError(f"confidence_threshold must be in [0,1], got {self.confidence_threshold}")
        if self.model_stage not in MODEL_STAGES:
            raise ValueError(f"model_stage must be one of {MODEL_STAGES}, got {self.model_stage!r}")
        if self.model_stage == "external" and not self.model_command:
            raise ValueError("model_stage 'external' requires model_command")
        if self.decode_mode not in translit.MODES:
            raise ValueError(f"decode_mode must be one of {translit.MODES}")


@dataclass
class PipelineConfig(PipelineSettings):
    """The files a pipeline loads, by path, and its settings."""

    codebook_path: str
    input_model_path: str
    output_model_path: str
    _: KW_ONLY
    pinyin_transform_path: str | None = None


@dataclass
class PipelineTrace:
    input_label: str
    input_confidence: float
    encoded: bool
    model_stage_output: str = ""
    output_label: str = ""
    output_confidence: float = 0.0
    restored: bool = False
    warnings: list[str] = field(default_factory=list)
    error: str | None = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), ensure_ascii=False)


@dataclass(eq=False, repr=False)
class Pipeline(PipelineSettings):
    codebook: Codebook
    input_model: LangIdModel
    output_model: LangIdModel
    _: KW_ONLY
    pinyin_transform: Mapping[int, str] | None = None

    def __post_init__(self):
        super().__post_init__()
        self._encode = translit.translator(self.codebook)
        self._encode_pinyin = (
            translit.translator(self.codebook, self.pinyin_transform) if self.pinyin_transform else None
        )

    @classmethod
    def from_config(cls, cfg: PipelineConfig) -> "Pipeline":
        transform = None
        if cfg.pinyin_transform_path:
            transform = codebook_mod.load_transform(cfg.pinyin_transform_path)
        return cls(
            codebook_mod.load_path(cfg.codebook_path),
            langid.load_model(cfg.input_model_path),
            langid.load_model(cfg.output_model_path),
            pinyin_transform=transform,
            **{f.name: getattr(cfg, f.name) for f in dataclasses.fields(PipelineSettings)},
        )

    def _run_stage(self, text: str) -> str:
        if self.model_stage == "identity":
            return text
        import subprocess  # only the external stage starts a process

        proc = subprocess.run(
            self.model_command,
            shell=True,
            input=text.encode("utf-8"),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        if proc.returncode != 0:
            detail = proc.stderr.decode("utf-8", errors="replace").strip()
            raise StageError(f"model command exited {proc.returncode}: {detail or '(no stderr)'}")
        try:
            out = proc.stdout.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StageError(f"model command produced invalid UTF-8 at byte {exc.start}") from exc
        # Line filters customarily append one newline; our contract is one newline-free line.
        out = out[:-1] if out.endswith("\n") else out
        if "\n" in out:
            raise StageError("model command replied with more than one line")
        return out

    def _route(self, text: str, pred_in: langid.Prediction) -> tuple[PipelineTrace, str]:
        """Encode `text` as its input label asks and run the model stage on it.

        Returns the trace so far, a stage failure recorded in it, and the text
        sent to the stage.
        """
        warnings: list[str] = []
        work = text
        encoded = False
        if pred_in.confidence >= self.confidence_threshold:
            if pred_in.label in LOW_RESOURCE_TAGS:
                work = self._encode(text)
                encoded = True
            elif pred_in.label == "zh" and self._encode_pinyin is not None:
                work = self._encode_pinyin(text)
                encoded = True
                warnings.append("pinyin transform applied; output is not restorable")

        trace = PipelineTrace(pred_in.label, pred_in.confidence, encoded, warnings=warnings)
        try:
            trace.model_stage_output = self._run_stage(work)
        except TranslitError as exc:
            trace.error = f"{type(exc).__name__}: {exc}"
        return trace, work

    def _restorable(self, trace: PipelineTrace, sent: str) -> bool:
        """Whether to decode the stage output back to its script.

        A line encoded from a low-resource input label whose stage output is
        the text it was sent is code, so it is restored whatever the output
        classifier reads; this makes the identity stage lossless. Otherwise the
        output label must ask for it. A line encoded under any other input
        label went through the lossy pinyin transform and cannot be restored.
        """
        if trace.encoded and trace.input_label not in LOW_RESOURCE_TAGS:
            return False
        if trace.encoded and trace.model_stage_output == sent:
            return True
        return trace.output_label in LOW_RESOURCE_TAGS and trace.output_confidence >= self.confidence_threshold

    def _restore(self, trace: PipelineTrace, outcome: translit.DecodeResult | TranslitError) -> str:
        """Record the decode outcome of a restorable line; returns the line's final text."""
        if isinstance(outcome, TranslitError):
            trace.error = f"{type(outcome).__name__}: {outcome}"
            return trace.model_stage_output
        trace.restored = True
        trace.warnings.extend(outcome.warnings)
        if trace.encoded and trace.output_label != trace.input_label:
            trace.warnings.append(
                f"classifier disagreement: input {trace.input_label}, output {trace.output_label}"
            )
        return outcome.text

    def process(self, text: str) -> tuple[str, PipelineTrace]:
        """Run one text through all stages; raises StageError on stage failure."""
        final, trace = next(self.batch([text]))
        if trace.error is not None:
            raise StageError(trace.error)
        return final, trace

    def batch(self, lines: Iterable[str]) -> Iterator[tuple[str, PipelineTrace]]:
        """Run every line through all stages, order preserved; failures are
        recorded per line in the trace and the batch continues.

        Each step sees the whole batch at once: the input classifier before any
        line is encoded, the output classifier once every line has been through
        the model stage, and one `translit.decode_lines` call over every line
        to restore.
        """
        texts = list(lines)
        preds_in = langid.predict_many(texts, self.input_model)
        routed = [self._route(text, pred) for text, pred in zip(texts, preds_in)]
        traces = [trace for trace, _ in routed]
        finals = texts[:]  # a line whose stage failed comes back as it went in
        ran = [i for i, trace in enumerate(traces) if trace.error is None]
        preds_out = langid.predict_many([traces[i].model_stage_output for i in ran], self.output_model)
        for i, pred in zip(ran, preds_out):
            traces[i].output_label = pred.label
            traces[i].output_confidence = pred.confidence
            finals[i] = traces[i].model_stage_output
        restore = [i for i in ran if self._restorable(*routed[i])]
        outcomes = translit.decode_lines([finals[i] for i in restore], self.codebook, self.decode_mode)
        for i, outcome in zip(restore, outcomes):
            finals[i] = self._restore(traces[i], outcome)
        yield from zip(finals, traces)
