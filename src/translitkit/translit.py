"""Reversible encode/decode between source scripts and Latin code sequences.

Wire grammar of encoded text:

* a mapped character becomes its code (`[A-Z][a-z]*`);
* a maximal run of unmapped characters drawn from ``[A-Za-z@]`` is wrapped as
  ``'@' + run + '@'`` with every interior ``'@'`` doubled;
* any other unmapped character passes through verbatim (it can never be
  mistaken for a code or a run marker).

Every code starts with its only uppercase letter, so uppercase letters delimit
code segments and greedy longest-match decoding is exact. The encoding is a
total, injective function; decoding it is a single left-to-right pass, which
a vectorized kernel makes over a whole block of lines at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .codebook import Codebook
from .errors import DecodeError, FormatError, TranslitError
from .textio import BLOCK_SIZE

MODES = ("strict", "lenient")

_PRESERVE_SPLIT = re.compile(r"([A-Za-z@]+)")
_SEGMENT_SPLIT = re.compile(r"([A-Z][a-z]*)")
_LOWER_SEARCH = re.compile(r"[a-z]").search

_UTF32 = "utf-32-le"
_NO_CODE = 0xFFFFFFFF  # above U+10FFFF, so no codebook entry's code point
_MAX_WIDTH = 13  # 26 * 27**12 < 2**63: ids of codes up to 13 letters fit an int64
_DENSE_WIDTH = 4  # up to 26 * 27**3 = 511,758 ids index a dense table (2 MB)
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


# --- decoding ---------------------------------------------------------------
#
# Two decoders share the grammar. The kernel decodes a whole string in one
# vectorized pass but only accepts what it can decode exactly; the scalar
# scan is the general left-to-right parser that reports errors and makes the
# lenient repairs. `decode` tries the kernel first on all but short strings.


class _CodeTable:
    """The kernel's code -> code point lookup, built once per codebook.

    A code's id is a radix-27 number over its letters, padded to `width`
    letters: the uppercase letter counts 0-25, each lowercase letter 1-26 and
    a missing letter 0, so codes of different lengths never share an id. Up to
    four letters the id indexes a dense uint32 table; longer codes are found by
    binary search. A code longer than 13 letters would overflow the id; such a
    segment is left to the scalar scan.
    """

    def __init__(self, code_to_char: Mapping[str, int]):
        self.width = width = min(max(map(len, code_to_char), default=1), _MAX_WIDTH)
        codes = [code for code in code_to_char if len(code) <= width]
        # '`' is 'a' - 1, so a padding letter counts 0 as in `_kernel`.
        letters = np.frombuffer("".join(c.ljust(width, "`") for c in codes).encode("ascii"), np.uint8)
        letters = letters.reshape(len(codes), width).astype(np.int64)
        ids = letters[:, 0] - 65
        for k in range(1, width):
            ids = ids * 27 + (letters[:, k] - 96)
        cps = np.array([code_to_char[code] for code in codes], np.uint32)
        if width <= _DENSE_WIDTH:
            self.dense = np.full(26 * 27 ** (width - 1), _NO_CODE, np.uint32)
            self.dense[ids] = cps
        else:
            self.dense = None
            order = np.argsort(ids)
            self.ids, self.cps = ids[order], cps[order]

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        if self.dense is not None:
            return self.dense[ids]
        pos = np.minimum(np.searchsorted(self.ids, ids), len(self.ids) - 1)
        return np.where(self.ids[pos] == ids, self.cps[pos], _NO_CODE)


def _code_table(cb: Codebook) -> _CodeTable:
    if cb.kernel_table is None:
        cb.kernel_table = _CodeTable(cb.code_to_char)
    return cb.kernel_table


def _kernel(enc: str, cb: Codebook) -> tuple[str, np.ndarray] | None:
    """Decode `enc` in one vectorized pass over its UTF-32 code points.

    Returns the text and the keep mask (which input positions emit a code
    point), or None when `enc` holds anything the scalar scan must judge: a
    stray lowercase letter, an unknown or over-long code segment, an empty or
    unterminated '@' run, or a run that crosses '\\n'.
    """
    a = np.frombuffer(enc.encode(_UTF32, "surrogatepass"), np.uint32)
    n = a.size
    keep = np.ones(n, bool)
    if not n:
        return "", keep
    upper = (a - 65) < 26  # wraps below 'A', so one compare tests the range
    lower = (a - 97) < 26
    at = (a == 64).nonzero()[0]
    if at.size:
        # A group of m '@'s flips inside/outside iff m is odd. Inside a group,
        # '@@' pairs stand for one '@' and a last unpaired '@' closes; outside,
        # the first '@' opens. So '@' number j of a group entered in state s
        # (1 = inside) is kept iff (j + s) is odd and it is not the group's last.
        first = (np.diff(at, prepend=-2) != 1).nonzero()[0]
        size = np.diff(first, append=at.size)
        odd = size & 1
        after = np.cumsum(odd) & 1
        before = after ^ odd
        if after[-1] or ((before == 0) & (size == 2)).any():
            return None  # unterminated, or an empty run
        j = np.arange(at.size) - np.repeat(first, size)
        keep[at] = ((j + np.repeat(before, size)) & 1).astype(bool) & (j + 1 < np.repeat(size, size))
        flips = np.zeros(n + 1, np.uint8)
        flips[at[first + size - 1][odd == 1] + 1] = 1
        inside = (np.cumsum(flips[:n], dtype=np.uint8) & 1).astype(bool)
        if inside[a == 10].any():
            return None  # a run crosses a line end
        upper &= ~inside
        lower &= ~inside
    letter = upper | lower
    if lower[0] or (lower[1:] & ~letter[:-1]).any():
        return None  # a lowercase letter that continues no code
    out = a.copy()
    starts = upper.nonzero()[0]
    if starts.size:
        last = letter.copy()  # the last letter of each code segment
        last[:-1] &= ~lower[1:]
        size = last.nonzero()[0] - starts + 1
        table = _code_table(cb)
        if size.max() > table.width:
            return None
        ids = a.take(starts).astype(np.int64) - 65
        for k in range(1, table.width):
            ids *= 27
            ids += np.where(size > k, a.take(starts + k, mode="clip").astype(np.int64) - 96, 0)
        cps = table.lookup(ids)
        if (cps == _NO_CODE).any():
            return None
        out[starts] = cps
        keep &= ~lower
    return out.compress(keep).tobytes().decode(_UTF32, "surrogatepass"), keep


def kernel_decode(enc: str, cb: Codebook) -> str | None:
    """Decode `enc` in one vectorized pass, or return None if the scalar scan must.

    The result, when there is one, is what `decode` returns in either mode.
    None means `enc` holds an error, a lenient repair, or an '@' run that
    crosses a '\\n'; `scan_decode` each line of it to get the result, error or
    warnings per line.
    """
    decoded = _kernel(enc, cb)
    return None if decoded is None else decoded[0]


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


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


def scan_decode(enc: str, cb: Codebook, mode: str = "strict") -> DecodeResult:
    """Decode `enc` with the scalar scan: one left-to-right pass over the grammar.

    Strict and lenient errors, repairs and warnings come from here, with
    offsets relative to `enc`. An '@' run may hold any character, '\\n' too.
    """
    _check_mode(mode)
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


def decode(enc: str, cb: Codebook, mode: str = "strict") -> DecodeResult:
    """Restore encoded text; lenient mode passes unknown segments through with warnings.

    Grammar violations (unterminated or empty '@' runs, stray lowercase outside
    a segment) raise FormatError in either mode. Strings of 256 characters or
    more go through the vectorized kernel first; the result is the same.
    """
    _check_mode(mode)
    text = kernel_decode(enc, cb) if len(enc) >= _KERNEL_MIN else None
    return DecodeResult(text, []) if text is not None else scan_decode(enc, cb, mode)


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


def _roundtrips(lines: list[str], encoded: list[str], cb: Codebook) -> list[bool]:
    """Per line, whether strict decoding of its encoding gives it back.

    The encodings are decoded together in one kernel pass; the kernel's keep
    mask maps each line's input span to its output span.
    """
    decoded = _kernel("\n".join(encoded), cb)
    if decoded is None:
        oks = []
        for line, enc in zip(lines, encoded):
            try:
                oks.append(scan_decode(enc, cb, "strict").text == line)
            except TranslitError:
                oks.append(False)
        return oks
    text, keep = decoded
    offsets = np.concatenate(([0], np.cumsum(keep)))  # output offset of each input position
    lengths = np.array([len(enc) for enc in encoded])
    ends = np.cumsum(lengths + 1) - 1
    spans = zip(offsets[ends - lengths].tolist(), offsets[ends].tolist())
    return [text[start:end] == line for line, (start, end) in zip(lines, spans)]


def verify_roundtrip(lines: Iterable[str], cb: Codebook) -> RoundtripReport:
    """Count lines that do not survive encode-then-decode; 0 for a valid codebook."""
    encode = translator(cb)
    total = 0
    failures = 0
    first: int | None = None
    for batch in _batches(lines):
        for offset, ok in enumerate(_roundtrips(batch, [encode(line) for line in batch], cb), total):
            if not ok:
                failures += 1
                if first is None:
                    first = offset
        total += len(batch)
    return RoundtripReport(total, failures, first)
