"""The vectorized decoder: numpy passes over whole blocks of encoded text.

This is the numpy half of `translit`, kept apart so that the processes that
never decode (encode, analyze, the builds) do not import numpy. `translit`
owns the grammar and the scalar scan and calls in here for a batch of lines
and for strings long enough to pay for the kernel's fixed cost.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .codebook import Codebook

_UTF32 = "utf-32-le"
_NO_CODE = 0xFFFFFFFF  # above U+10FFFF, so no codebook entry's code point
_MAX_WIDTH = 13  # 26 * 27**12 < 2**63: ids of codes up to 13 letters fit an int64
_DENSE_WIDTH = 4  # up to 26 * 27**3 = 511,758 ids index a dense table (2 MB)


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
        # '`' is 'a' - 1, so a padding letter counts 0 as in `kernel_decode`.
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


def kernel_decode(enc: str, cb: Codebook) -> str | None:
    """Decode `enc` in one vectorized pass over its UTF-32 code points, or return None.

    The result, when there is one, is what `translit.decode` returns in either
    mode. None means `enc` holds something the scalar scan must judge: a stray
    lowercase letter, an unknown or over-long code segment, an empty or
    unterminated '@' run, or a run that crosses '\\n'.
    """
    a = np.frombuffer(enc.encode(_UTF32, "surrogatepass"), np.uint32)
    n = a.size
    if not n:
        return ""
    keep = np.ones(n, bool)
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
    return out.compress(keep).tobytes().decode(_UTF32, "surrogatepass")
