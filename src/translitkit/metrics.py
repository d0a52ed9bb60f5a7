"""Compression measures: UTF-8 byte ratio and token-count ratio, original vs encoded.

Each side is walked once: `lines_report` counts `(text, end)` lines, as
`cmd_stats` reads them; the other functions count the strings they are given.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import ComputationError

if TYPE_CHECKING:
    from .bpe import BpeModel


@dataclass
class CompressionReport:
    original_bytes: int
    encoded_bytes: int
    file_ratio: float | None
    original_tokens: int
    encoded_tokens: int
    token_ratio: float | None
    language_tag: str = ""
    empty: bool = False

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), ensure_ascii=False)


def _count(lines: Iterable[tuple[str, str]], model: BpeModel | None) -> tuple[int, int]:
    """UTF-8 bytes and `model` tokens of `(text, end)` lines; a line end is one byte, no token."""
    size = tokens = 0
    for text, end in lines:
        size += len(text.encode("utf-8")) + (end != "")
        if model is not None:
            tokens += len(model.tokenize(text))
    return size, tokens


def _pieces(source: str | Iterable[str]) -> Iterable[tuple[str, str]]:
    return ((piece, "") for piece in ([source] if isinstance(source, str) else source))


def _ratio(original: int, encoded: int, undefined: str) -> float:
    """original/encoded, 1.0 for two empty sides; an empty encoded side alone raises `undefined`."""
    if original and not encoded:
        raise ComputationError(undefined.format(original))
    return original / encoded if encoded else 1.0


_TOKEN_UNDEFINED = "token ratio undefined: encoded stream has no tokens, original has {}"


def file_compression(
    original: str | Iterable[str], encoded: str | Iterable[str]
) -> tuple[int, int, float]:
    """(original_bytes, encoded_bytes, original/encoded). Two empty streams give ratio 1.0."""
    report = compression_report(original, encoded)
    return report.original_bytes, report.encoded_bytes, report.file_ratio


def token_compression(
    original: str | Iterable[str], encoded: str | Iterable[str], model: BpeModel
) -> tuple[int, int, float]:
    """(original_tokens, encoded_tokens, original/encoded) under `model`."""
    _, ot = _count(_pieces(original), model)
    _, et = _count(_pieces(encoded), model)
    return ot, et, _ratio(ot, et, _TOKEN_UNDEFINED)


def lines_report(
    original: Iterable[tuple[str, str]],
    encoded: Iterable[tuple[str, str]],
    model: BpeModel | None = None,
    language_tag: str = "",
) -> CompressionReport:
    """The report over two streams of `(text, end)` lines, each walked once.

    Token fields stay zero/None without a model.
    """
    ob, ot = _count(original, model)
    eb, et = _count(encoded, model)
    fr = _ratio(ob, eb, "file ratio undefined: encoded stream is empty, original has {} bytes")
    tr = None if model is None else _ratio(ot, et, _TOKEN_UNDEFINED)
    return CompressionReport(ob, eb, fr, ot, et, tr, language_tag, ob == 0 and ot == 0)


def compression_report(
    original: str | Iterable[str],
    encoded: str | Iterable[str],
    model: BpeModel | None = None,
    language_tag: str = "",
) -> CompressionReport:
    """`lines_report` over the strings given, each counted as it is."""
    return lines_report(_pieces(original), _pieces(encoded), model, language_tag)


def format_human(reports: Iterable[tuple[str, CompressionReport]]) -> str:
    """Small fixed-width table, one row per (method, report); ratios to 2 decimals."""

    def ratio(x: float | None) -> str:
        return f"{x:.2f}x" if x is not None else "-"

    rows = [("Method", "Lang", "File Compr.", "Token Compr.")]
    for method, rep in reports:
        rows.append((method or "-", rep.language_tag or "-", ratio(rep.file_ratio), ratio(rep.token_ratio)))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    return "\n".join(
        "  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip() for row in rows
    )
