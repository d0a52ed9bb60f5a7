"""Reversible encode/decode between source scripts and Latin code sequences.

Wire grammar of encoded text:

* a mapped character becomes its code (`[A-Z][a-z]*`);
* a maximal run of unmapped characters drawn from ``[A-Za-z@]`` is wrapped as
  ``'@' + run + '@'`` with every interior ``'@'`` doubled;
* any other unmapped character passes through verbatim (it can never be
  mistaken for a code or a run marker).

Every code starts with its only uppercase letter, so uppercase letters delimit
code segments and greedy longest-match decoding is exact. The encoding is a
total, injective function.

Encoding a string takes one `str.translate` through a table indexed by code
point and, only when the text holds a run, two `str.replace` calls; there is
no Python loop. The table maps each reserved character ``L`` to ``S + L + S``
('@' to ``S + '@@' + S``) for a sentinel ``S``, a code point that the codebook
maps. Every occurrence of ``S`` in the text becomes its code, so ``S`` reaches
the output only as a mark. Inside a run the marks of neighbouring characters
meet as ``SS``, which is deleted, and the two marks left at a run's ends
become its '@'s. The price: text of Latin letters alone, which a plain
`translate` copies on its ASCII fast path, now goes through the general path
and takes a third to a half longer. Decoding is a single left-to-right pass,
which a vectorized kernel makes over a whole block of lines at once; the
scalar scan takes only the lines the kernel marks.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .codebook import RESERVED, Codebook
from .errors import DecodeError, FormatError, TranslitError
from .textio import BLOCK_SIZE

MODES = ("strict", "lenient")

# One alternative per token of the grammar: an '@' run (its content, '@@' for
# each '@'), a code segment, a stretch of passthrough characters, and a lone
# '@' or lowercase letter, which is an error. `(?!@)` keeps a run from ending
# on the first '@' of a pair, so an unterminated run is caught at its start.
_TOKEN = re.compile(r"@((?:[^@]|@@)*)@(?!@)|([A-Z][a-z]*)|[^@A-Za-z]+|(.)")

# Below about this many characters the scalar scan beats the kernel's fixed
# cost of some thirty numpy calls (measured crossover: 200-350 characters).
_KERNEL_MIN = 256


@dataclass
class DecodeResult:
    text: str
    warnings: list[str]


@dataclass
class RoundtripReport:
    total: int
    failures: int
    first_failure_offset: int | None  # 0-based line offset of the first failing line


def _code_point_table(mapping: Mapping[int, str]) -> list[int | str] | Mapping[int, str]:
    """`mapping` as a `str.translate` table: a list indexed by code point, or `mapping` itself.

    Unmapped slots hold their own code point, and `translate` leaves a
    character past the end alone. A key that is negative or astral keeps the
    dict, since a list up to U+10FFFF would take some 45 MB.
    """
    if not mapping or min(mapping) < 0 or max(mapping) >= 0x10000:
        return mapping
    table: list[int | str] = list(range(max(mapping) + 1))
    for cp, replacement in mapping.items():
        table[cp] = replacement
    return table


def _encode_table(mapping: Mapping[int, str], sentinel: str) -> list[int | str] | Mapping[int, str]:
    """The table of `mapping` plus the run marks: each reserved character between two `sentinel`s, '@' doubled."""
    marks = {cp: f"{sentinel}{'@@' if cp == ord('@') else chr(cp)}{sentinel}" for cp in RESERVED}
    return _code_point_table({**mapping, **marks})


def _marking_encoder(table: list[int | str] | Mapping[int, str], sentinel: str) -> Callable[[str], str]:
    """An encoder through `table`, whose run marks are `sentinel`."""
    pair = sentinel + sentinel

    def encode(text: str) -> str:
        # Within a run the marks of neighbouring characters meet as a pair and
        # go; the two left at the ends of each run become its '@'s.
        out = text.translate(table)
        return out.replace(pair, "").replace(sentinel, "@") if sentinel in out else out

    return encode


def translator(cb: Codebook, transform: Mapping[int, str] | None = None) -> Callable[[str], str]:
    """Bind a codebook (plus an optional lossy transform) into a reusable encoder.

    Transform entries never shadow codebook entries and never apply to the
    reserved ``[A-Za-z@]``; transformed output is plain text and is not
    restorable. The encoder marks runs with a sentinel: the lowest mapped code
    point that no transform value holds, so that it reaches the output only
    where the table puts it. The codebook's own table is built once and kept
    on `cb`; with a transform, it is built once per call. If no mapped code
    point qualifies, each text gets a sentinel that occurs neither in it nor in
    a transform value, and a table of its own.
    """
    if transform:
        mapping = {cp: s for cp, s in transform.items() if cp not in RESERVED} | cb.char_to_code
        held = "".join(transform.values())
    elif cb.encode_table is not None:
        table = cb.encode_table
        return _marking_encoder(table, table[ord("@")][0])  # '@' maps to S + '@@' + S
    else:
        mapping, held = cb.char_to_code, ""
    sentinel = min((chr(cp) for cp in cb.char_to_code if chr(cp) not in held), default=None)
    if sentinel is None:

        def encode(text: str) -> str:
            used = set(text).union(held)
            free = next(chr(cp) for cp in range(0x110000) if chr(cp) not in used)
            return _marking_encoder(_encode_table(mapping, free), free)(text)

        return encode
    table = _encode_table(mapping, sentinel)
    if not transform:
        cb.encode_table = table
    return _marking_encoder(table, sentinel)


def to_latin(text: str, cb: Codebook, transform: Mapping[int, str] | None = None) -> str:
    """Encode `text` under `cb`; total over any str input."""
    return translator(cb, transform)(text)


# --- decoding ---------------------------------------------------------------
#
# Two decoders share the grammar. The kernel (`kernel.py`, numpy) decodes the
# lines of a string in one vectorized pass and marks those it cannot decode
# exactly; the scalar scan is the general left-to-right parser that reports
# errors and makes the lenient repairs. Every decode of more than a short
# string goes one way, `decode_block`: a kernel pass over each run of whole
# lines of up to `kernel._SCRATCH_MAX` code points, then a scan of each
# marked line alone. `kernel` is imported where it is called, so that a
# process that never reaches it does not import numpy.


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


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


def scan_decode(enc: str, cb: Codebook, mode: str = "strict", pos: int = 0) -> DecodeResult:
    """Decode `enc[pos:]` with the scalar scan: one left-to-right pass over the grammar.

    Strict and lenient errors, repairs and warnings come from here, with
    offsets relative to `enc`. An '@' run may hold any character, '\\n' too.
    """
    _check_mode(mode)
    lookup = cb.code_to_text
    out: list[str] = []
    warnings: list[str] = []
    for m in _TOKEN.finditer(enc, pos):
        run, seg, bad = m.groups()
        if seg is not None:
            ch = lookup.get(seg)
            if ch is not None:
                out.append(ch)
            else:
                _decode_segment_greedy(seg, m.start(), lookup, mode, out, warnings)
        elif run:
            out.append(run.replace("@@", "@"))
        elif run is not None:
            raise FormatError(f"empty '@' run at offset {m.start()}", offset=m.start())
        elif bad is None:
            out.append(m.group())
        elif bad == "@":
            raise FormatError(f"unterminated '@' run starting at offset {m.start()}", offset=m.start())
        else:
            raise FormatError(f"stray lowercase letter {bad!r} at offset {m.start()}", offset=m.start())
    return DecodeResult("".join(out), warnings)


def _scanned(enc: str, cb: Codebook, mode: str) -> DecodeResult | TranslitError:
    try:
        return scan_decode(enc, cb, mode)
    except TranslitError as exc:
        return exc


def decode_block(enc: str, cb: Codebook, mode: str) -> tuple[str, dict[int, DecodeResult | TranslitError]]:
    """`kernel.kernel_lines` over the '\\n'-separated lines of `enc`: ``(text, scans)``.

    The kernel takes runs of whole lines of at most `kernel._SCRATCH_MAX` code
    points, so a string of lines decodes in the arrays the kernel keeps and
    one no longer than that in one call; a longer line goes whole, alone.
    `text` is the kernel's, marked lines left empty; `scans` maps each marked
    line's number, in order, to its own `scan_decode` or the error it raised.
    """
    from . import kernel

    _check_mode(mode)
    most = kernel._SCRATCH_MAX
    texts: list[str] = []
    scans: dict[int, DecodeResult | TranslitError] = {}
    start = first = 0  # the piece's first code point and line number
    while True:
        end = len(enc) if len(enc) - start <= most else enc.rfind("\n", start, start + most + 1)
        if end < 0:  # no line ends within `most`: the line at `start` goes alone
            end = enc.find("\n", start + most)
            end = len(enc) if end < 0 else end
        piece = enc[start:end]
        text, bad = kernel.kernel_lines(piece, cb)
        texts.append(text)
        if bad:
            lines = piece.split("\n")
            scans.update((first + i, _scanned(lines[i], cb, mode)) for i in bad)
        if end == len(enc):
            return "\n".join(texts), scans
        start, first = end + 1, first + piece.count("\n") + 1


def decode(enc: str, cb: Codebook, mode: str = "strict") -> DecodeResult:
    """Restore encoded text; lenient mode passes unknown segments through with warnings.

    Grammar violations (unterminated or empty '@' runs, stray lowercase outside
    a segment) raise FormatError in either mode. The result is `scan_decode`'s.
    Strings of 256 characters or more go through `decode_block`. If a line's
    scan raises, the string is scanned from that line's start: the lines before
    it read as they do alone, and only an '@' run opened on it can read on past
    its end. That scan gives the string's first error, or reads the run.
    """
    if len(enc) < _KERNEL_MIN:
        return scan_decode(enc, cb, mode)
    text, scans = decode_block(enc, cb, mode)
    if not scans:
        return DecodeResult(text, [])
    pieces, warnings = text.split("\n"), []
    starts = list(itertools.accumulate((len(line) + 1 for line in enc.split("\n")), initial=0))
    for i, out in scans.items():
        if isinstance(out, TranslitError):
            tail = scan_decode(enc, cb, mode, starts[i])
            return DecodeResult("\n".join(pieces[:i] + [tail.text]), warnings + tail.warnings)
        pieces[i] = out.text
        for w in out.warnings:  # 'offset N: ...', N counted in the line
            offset, rest = w.removeprefix("offset ").split(":", 1)
            warnings.append(f"offset {int(offset) + starts[i]}:{rest}")
    return DecodeResult("\n".join(pieces), warnings)


def from_latin(enc: str, cb: Codebook, mode: str = "strict") -> str:
    """Inverse of to_latin: from_latin(to_latin(s, cb), cb) == s for every s."""
    return decode(enc, cb, mode).text


def _batches(lines: Iterable[str]) -> Iterator[list[str]]:
    """Consecutive lines in lists of about BLOCK_SIZE characters."""
    batch: list[str] = []
    size = 0
    for line in lines:
        batch.append(line)
        size += len(line) + 1
        if size >= BLOCK_SIZE:
            yield batch
            batch = []
            size = 0
    if batch:
        yield batch


def splice(
    encoded: list[str], text: str, scans: dict[int, DecodeResult | TranslitError], cb: Codebook, mode: str
) -> list[DecodeResult | TranslitError]:
    """Per line of `encoded`, its DecodeResult or the TranslitError it raised.

    `text, scans` is `decode_block` of the lines joined by '\\n'. If a line
    holds '\\n', the kernel's lines are not these, and each is scanned alone.
    """
    pieces = text.split("\n")
    if len(pieces) != len(encoded):
        return [_scanned(enc, cb, mode) for enc in encoded]
    return [scans[i] if i in scans else DecodeResult(piece, []) for i, piece in enumerate(pieces)]


def decode_lines(encoded: list[str], cb: Codebook, mode: str = "strict") -> list[DecodeResult | TranslitError]:
    """Decode each of `encoded` with one `decode_block` pass over the lines joined by '\\n' (see `splice`)."""
    return splice(encoded, *decode_block("\n".join(encoded), cb, mode), cb, mode)


def verify_roundtrip(lines: Iterable[str], cb: Codebook) -> RoundtripReport:
    """Count lines that do not survive encode-then-decode; 0 for a valid codebook.

    Each batch takes one `decode_block` pass over its lines' encodings joined
    by '\\n' (when '\\n' encodes to itself, the encoding of the joined lines:
    no run crosses '\\n'). A pass that marks no line and gives the joined text
    back shows that every line round-trips; otherwise `splice` finds the failures.
    """
    encode = translator(cb)
    whole = encode("\n") == "\n"
    total = 0
    failures = 0
    first: int | None = None
    for batch in _batches(lines):
        text = "\n".join(batch)
        decoded, scans = decode_block(encode(text) if whole else "\n".join(map(encode, batch)), cb, "strict")
        if scans or decoded != text:
            outcomes = splice([encode(line) for line in batch], decoded, scans, cb, "strict")
            for offset, (line, out) in enumerate(zip(batch, outcomes), total):
                if isinstance(out, TranslitError) or out.text != line:
                    failures += 1
                    if first is None:
                        first = offset
        total += len(batch)
    return RoundtripReport(total, failures, first)
