"""The vectorized decoder: numpy passes over whole blocks of encoded text.

This is the numpy half of `translit`, kept apart so that the processes that
never decode (encode, analyze, the builds) do not import numpy. `translit`
owns the grammar and the scalar scan and calls in here for a batch of lines
and for strings long enough to pay for the kernel's fixed cost.
"""

from __future__ import annotations

import threading

import numpy as np

from .codebook import Codebook
from .textio import BLOCK_SIZE

_UTF32 = "utf-32-le"
_NO_CODE = 0xFFFFFFFF  # above U+10FFFF, so no codebook entry's code point
_WIDTH = 4  # codes of up to four letters: ids below 26 * 27**3 = 511,758 index a dense table (2 MB)
# Strings up to this many code points (a block of encoded text, or a verify
# batch once encoded) decode in working arrays kept from call to call; a longer
# one gets arrays of its own, freed when the call returns.
_SCRATCH_MAX = 4 * BLOCK_SIZE


def _code_table(cb: Codebook) -> tuple[int, np.ndarray]:
    """The kernel's code -> code point table for `cb`, built on first use: ``(width, table)``.

    A code's id is a radix-27 number over its letters, padded to `width`
    letters: the uppercase letter counts 0-25, each lowercase letter 1-26 and
    a missing letter 0, so codes of different lengths never share an id. The
    id indexes `table`, which holds _NO_CODE for an id that is no code's. A
    code longer than four letters has no entry; a segment that long is left
    to the scalar scan.
    """
    if cb.kernel_table is None:
        code_to_char = cb.code_to_char
        width = min(max(map(len, code_to_char), default=1), _WIDTH)
        codes = [code for code in code_to_char if len(code) <= width]
        # '`' is 'a' - 1, so a padding letter counts 0 as in `kernel_decode`.
        letters = np.frombuffer("".join(c.ljust(width, "`") for c in codes).encode("ascii"), np.uint8)
        letters = letters.reshape(len(codes), width).astype(np.int32)
        ids = letters[:, 0] - 65
        for k in range(1, width):
            ids = ids * 27 + (letters[:, k] - 96)
        table = np.full(26 * 27 ** (width - 1), _NO_CODE, np.uint32)
        table[ids] = [code_to_char[code] for code in codes]
        cb.kernel_table = width, table
    return cb.kernel_table


class _Scratch:
    """The kernel's working arrays by name, each reused by later requests for that name.

    Reused from call to call, an array is faulted in once for a stream of
    blocks rather than once per block. Up to _SCRATCH_MAX elements an array is
    allocated with a power-of-two length, so that blocks of slightly different
    sizes share it; a longer one is allocated with the length asked for.
    """

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}

    def array(self, name: str, dtype: type, size: int) -> np.ndarray:
        buf = self.arrays.get(name)
        if buf is None or buf.size < size:
            cap = size if size > _SCRATCH_MAX else 1 << (size - 1).bit_length()
            buf = self.arrays[name] = np.empty(cap, dtype)
        return buf[:size]


class _PerThread(threading.local):
    def __init__(self) -> None:
        self.scratch = _Scratch()


_per_thread = _PerThread()  # one scratch per thread, so concurrent calls never share one


def kernel_decode(enc: str, cb: Codebook) -> str | None:
    """Decode `enc` in one vectorized pass over its UTF-32 code points, or return None.

    The result, when there is one, is what `translit.decode` returns in either
    mode. None means `enc` holds something the scalar scan must judge: a stray
    lowercase letter, an unknown code segment or one of more than four letters,
    an empty or unterminated '@' run, or a run that crosses '\\n'.
    """
    a = np.frombuffer(enc.encode(_UTF32, "surrogatepass"), np.uint32)
    n = a.size
    if not n:
        return ""
    s = _per_thread.scratch if n <= _SCRATCH_MAX else _Scratch()
    # Each subtraction wraps below 'A' (or 'a'), so one compare tests the range.
    upper = np.less(np.subtract(a, 65, out=s.array("u32", np.uint32, n)), 26, out=s.array("upper", bool, n))
    lower = np.less(np.subtract(a, 97, out=s.array("u32", np.uint32, n)), 26, out=s.array("lower", bool, n))
    keep = s.array("keep", bool, n)
    keep.fill(True)
    mask = s.array("mask", bool, n)  # a boolean temporary
    at = np.equal(a, 64, out=mask).nonzero()[0]
    if at.size:
        # Number the '@'s 0, 1, 2, ... in order. A character other than '@' is
        # inside a run iff an odd number of '@'s come before it. Inside a run
        # '@@' stands for one '@' and a lone '@' closes it, so '@' number k is
        # kept iff k is odd and '@' number k + 1 follows it at once.
        if at.size & 1:
            return None  # unterminated
        # adj[k]: '@' number k follows '@' number k - 1 at once; False at both ends.
        adj = np.zeros(at.size + 1, bool)
        np.equal(np.diff(at), 1, out=adj[1:-1])
        kept = adj[2::2]  # adj[k + 1] for each odd k
        if (adj[1::2] & ~adj[:-1:2] & ~kept).any():
            return None  # an even-numbered '@' in a group of exactly two: an empty run
        keep[at[::2]] = False
        keep[at[1::2]] = kept
        # The count of '@'s so far; a uint8 sum wraps at 256, which keeps its parity.
        parity = np.cumsum(mask, dtype=np.uint8, out=s.array("parity", np.uint8, n))
        inside = np.bitwise_and(parity, 1, out=parity).view(bool)
        if np.logical_and(inside, np.equal(a, 10, out=mask), out=mask).any():
            return None  # a run crosses a line end
        outside = np.logical_not(inside, out=inside)
        upper &= outside
        lower &= outside
    letter = np.logical_or(upper, lower, out=s.array("letter", bool, n))
    stray = np.logical_not(letter[:-1], out=mask[1:])
    stray &= lower[1:]
    if lower[0] or stray.any():
        return None  # a lowercase letter that continues no code
    out = a
    if upper.any():
        # Every position gets the radix id of its letter, if uppercase, and the
        # lowercase letters after it (`cont`): a code's id where a code starts,
        # and an id inside the table anywhere else.
        width, table = _code_table(cb)
        ids = np.subtract(a, 65, out=s.array("ids", np.int32, n), dtype=np.int32)
        ids *= upper
        digit = s.array("digit", np.int32, n)
        cont = s.array("cont", bool, n)
        cont.fill(True)
        for j in range(1, width + 1):
            m = max(n - j, 0)
            cont[m:] = False
            cont[:m] &= lower[j:]
            if j < width:
                ids *= 27
                d = np.subtract(a[j:], 96, out=digit[:m], dtype=np.int32)
                d *= cont[:m]
                ids[:m] += d
        if cont.any():
            return None  # a code segment longer than any code of the table
        # Every id is in the table; "clip" only spares numpy a buffered copy.
        out = table.take(ids, mode="clip", out=s.array("out", np.uint32, n))
        if np.logical_and(np.equal(out, _NO_CODE, out=mask), upper, out=mask).any():
            return None
        # out = a where no code starts: a + upper * (out - a), exact in uint32.
        out -= a
        out *= upper
        out += a
        keep &= np.logical_not(lower, out=lower)
    return str(out.compress(keep), _UTF32, "surrogatepass")
