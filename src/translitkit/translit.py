"""Reversible encode/decode between source scripts and Latin code sequences.

Wire grammar of encoded text:

* a mapped character becomes its code (`[A-Z][a-z]*`);
* a maximal run of unmapped characters drawn from ``[A-Za-z@]`` is wrapped as
  ``'@' + run + '@'`` with every interior ``'@'`` doubled;
* any other unmapped character passes through verbatim (it can never be
  mistaken for a code or a run marker).

Every code starts with its only uppercase letter, so uppercase letters delimit
code segments and greedy longest-match decoding is exact. The encoding is a
total, injective function; decoding it is a single left-to-right pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .codebook import Codebook
from .errors import DecodeError, FormatError, TranslitError

MODES = ("strict", "lenient")

_PRESERVE_SPLIT = re.compile(r"([A-Za-z@]+)")
_SEGMENT_SPLIT = re.compile(r"([A-Z][a-z]*)")
_LOWER_SEARCH = re.compile(r"[a-z]").search

# Fast decode path: prefix every uppercase letter with a sentinel, then split.
_SEGMENT_MARK = {cp: "\x00" + chr(cp) for cp in range(ord("A"), ord("Z") + 1)}


@dataclass
class DecodeResult:
    text: str
    warnings: list[str]


@dataclass
class RoundtripReport:
    total: int
    failures: int
    first_failure_offset: int | None  # 0-based line offset of the first failing line


def translator(cb: Codebook, transform: Mapping[int, str] | None = None) -> Callable[[str], str]:
    """Bind a codebook (plus an optional lossy transform) into a reusable encoder.

    Transform entries never shadow codebook entries; transformed output is
    plain text and is not restorable.
    """
    if transform:
        table: Mapping[int, str] = {**transform, **cb.char_to_code}
    else:
        table = cb.char_to_code

    def encode(text: str) -> str:
        parts = _PRESERVE_SPLIT.split(text)
        out = []
        for i, part in enumerate(parts):
            if not part:
                continue
            if i & 1:
                out.append("@" + part.replace("@", "@@") + "@")
            else:
                out.append(part.translate(table))
        return "".join(out)

    return encode


def to_latin(text: str, cb: Codebook, transform: Mapping[int, str] | None = None) -> str:
    """Encode `text` under `cb`; total over any str input."""
    return translator(cb, transform)(text)


def _read_preserved(enc: str, start: int, out: list[str]) -> int:
    """Parse one '@'-wrapped run beginning at `start`; returns the next index."""
    j = start + 1
    buf = []
    while True:
        k = enc.find("@", j)
        if k == -1:
            raise FormatError(f"unterminated '@' run starting at offset {start}", offset=start)
        buf.append(enc[j:k])
        if enc[k + 1 : k + 2] == "@":
            buf.append("@")
            j = k + 2
        else:
            j = k + 1
            break
    content = "".join(buf)
    if not content:
        raise FormatError(f"empty '@' run at offset {start}", offset=start)
    out.append(content)
    return j


def _decode_chunk(
    chunk: str,
    base: int,
    cb: Codebook,
    mode: str,
    out: list[str],
    warnings: list[str],
) -> None:
    """Decode an '@'-free stretch: code segments plus passthrough characters."""
    lookup = cb.code_to_text
    get = lookup.get

    # Fast path for pure code sequences (the common case for encoded corpora).
    # Any passthrough character or unknown code makes a lookup miss, which
    # falls back to the general scan below.
    marked = chunk.translate(_SEGMENT_MARK)
    if marked and marked[0] == "\x00":
        try:
            out.append("".join(map(lookup.__getitem__, marked[1:].split("\x00"))))
            return
        except KeyError:
            pass

    pos = base
    for i, piece in enumerate(_SEGMENT_SPLIT.split(chunk)):
        if not piece:
            continue
        if i & 1:  # one uppercase letter plus its lowercase tail
            ch = get(piece)
            if ch is not None:
                out.append(ch)
            else:
                _decode_segment_greedy(piece, pos, lookup, mode, out, warnings)
        else:
            m = _LOWER_SEARCH(piece)
            if m:
                off = pos + m.start()
                raise FormatError(
                    f"stray lowercase letter {piece[m.start()]!r} at offset {off}", offset=off
                )
            out.append(piece)
        pos += len(piece)


def _decode_segment_greedy(
    seg: str,
    off: int,
    lookup: Mapping[str, str],
    mode: str,
    out: list[str],
    warnings: list[str],
) -> None:
    # Longest prefix wins; whatever is left is all lowercase and cannot start
    # another code, so it is residue by construction.
    for k in range(len(seg) - 1, 0, -1):
        ch = lookup.get(seg[:k])
        if ch is None:
            continue
        residue = seg[k:]
        if mode == "strict":
            raise DecodeError(
                f"code segment {seg!r} at offset {off}: unmatched residue {residue!r}",
                offset=off,
                segment=seg,
            )
        out.append(ch)
        out.append(residue)
        warnings.append(f"offset {off}: unmatched residue {residue!r} in segment {seg!r}")
        return
    if mode == "strict":
        raise DecodeError(f"unknown code segment {seg!r} at offset {off}", offset=off, segment=seg)
    out.append(seg)
    warnings.append(f"offset {off}: unknown code segment {seg!r}")


def decode(enc: str, cb: Codebook, mode: str = "strict") -> DecodeResult:
    """Restore encoded text; lenient mode passes unknown segments through with warnings.

    Grammar violations (unterminated or empty '@' runs, stray lowercase outside
    a segment) raise FormatError in either mode.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    out: list[str] = []
    warnings: list[str] = []
    i = 0
    n = len(enc)
    while i < n:
        k = enc.find("@", i)
        if k == -1:
            _decode_chunk(enc[i:], i, cb, mode, out, warnings)
            break
        if k > i:
            _decode_chunk(enc[i:k], i, cb, mode, out, warnings)
        i = _read_preserved(enc, k, out)
    return DecodeResult("".join(out), warnings)


def from_latin(enc: str, cb: Codebook, mode: str = "strict") -> str:
    """Inverse of to_latin: from_latin(to_latin(s, cb), cb) == s for every s."""
    return decode(enc, cb, mode).text


def verify_roundtrip(lines: Iterable[str], cb: Codebook) -> RoundtripReport:
    """Count lines that do not survive encode-then-decode; 0 for a valid codebook."""
    encode = translator(cb)
    total = 0
    failures = 0
    first: int | None = None
    for offset, line in enumerate(lines):
        total += 1
        try:
            ok = from_latin(encode(line), cb, "strict") == line
        except TranslitError:
            ok = False
        if not ok:
            failures += 1
            if first is None:
                first = offset
    return RoundtripReport(total, failures, first)
