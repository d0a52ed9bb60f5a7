"""Compression measures: UTF-8 byte ratio and token-count ratio, original vs encoded.

Each measure counts the pieces it is given as they are; a caller reading a
file decides what a line end counts (see `cli.cmd_stats`).
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


def _chunks(source: str | Iterable[str]) -> Iterable[str]:
    return [source] if isinstance(source, str) else source


def utf8_size(source: str | Iterable[str]) -> int:
    """Exact UTF-8 byte count of the pieces."""
    return sum(len(chunk.encode("utf-8")) for chunk in _chunks(source))


def file_compression(
    original: str | Iterable[str], encoded: str | Iterable[str]
) -> tuple[int, int, float]:
    """(original_bytes, encoded_bytes, original/encoded). Two empty streams give ratio 1.0."""
    ob = utf8_size(original)
    eb = utf8_size(encoded)
    if eb == 0:
        if ob > 0:
            raise ComputationError(
                f"file ratio undefined: encoded stream is empty, original has {ob} bytes"
            )
        return 0, 0, 1.0
    return ob, eb, ob / eb


def _token_count(source: str | Iterable[str], model: BpeModel) -> int:
    return sum(len(model.tokenize(chunk)) for chunk in _chunks(source))


def token_compression(
    original: str | Iterable[str], encoded: str | Iterable[str], model: BpeModel
) -> tuple[int, int, float]:
    """(original_tokens, encoded_tokens, original/encoded) under `model`."""
    ot = _token_count(original, model)
    et = _token_count(encoded, model)
    if et == 0:
        if ot > 0:
            raise ComputationError(
                f"token ratio undefined: encoded stream has no tokens, original has {ot}"
            )
        return 0, 0, 1.0
    return ot, et, ot / et


def compression_report(
    original: str | Iterable[str],
    encoded: str | Iterable[str],
    model: BpeModel | None = None,
    language_tag: str = "",
) -> CompressionReport:
    """Build a CompressionReport; token fields stay zero/None without a model.

    Non-str iterables are materialised because both measures need a pass.
    """
    original = list(_chunks(original))
    encoded = list(_chunks(encoded))
    ob, eb, fr = file_compression(original, encoded)
    if model is not None:
        ot, et, tr = token_compression(original, encoded, model)
    else:
        ot, et, tr = 0, 0, None
    empty = ob == 0 and ot == 0
    return CompressionReport(ob, eb, fr, ot, et, tr, language_tag, empty)


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
