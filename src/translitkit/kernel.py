"""The vectorized decoder: numpy passes over whole blocks of encoded text.

This is the numpy half of `translit`, kept apart so that the processes that
never decode (encode, analyze, the builds) do not import numpy. It decodes
the lines of a string in one pass, each '\\n' it writes ending a line, and
marks those that `translit.decode_block`, its one caller, must scan.
"""

from __future__ import annotations

import threading

import numpy as np

from .codebook import Codebook
from .textio import BLOCK_SIZE

_UTF32 = "utf-32-le"
_NO_CODE = 0xFFFFFFFF  # above U+10FFFF, so no codebook entry's code point
_WIDTH = 4  # codes of up to four letters: ids below 26 * 27**3 = 511,758 index a dense table (2 MB)
# Strings up to this many code points (a block of encoded text, a verify batch
# once encoded, or a run of the lines of a longer string, as
# `translit.decode_block` cuts it) decode in working arrays kept from call to
# call; a longer line gets arrays of its own, freed when the call returns.
_SCRATCH_MAX = 4 * BLOCK_SIZE


def _code_table(cb: Codebook) -> tuple[int, np.ndarray]:
    """The kernel's code -> code point table for `cb`, built on first use: ``(width, table)``.

    A code's id is a radix-27 number over its letters, padded to `width`
    letters: the uppercase letter counts 0-25, each lowercase letter 1-26 and
    a missing letter 0, so codes of different lengths never share an id. The
    id indexes `table`, which holds _NO_CODE for an id that is no code's. A
    code longer than four letters or for '\\n' has no entry: its line is left
    to the scalar scan, so every '\\n' the kernel writes ends a line.
    """
    if cb.kernel_table is None:
        code_to_char = cb.code_to_char
        width = min(max(map(len, code_to_char), default=1), _WIDTH)
        codes = [code for code, cp in code_to_char.items() if len(code) <= width and cp != 10]
        # '`' is 'a' - 1, so a padding letter counts 0 as in `kernel_lines`.
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


def kernel_lines(enc: str, cb: Codebook) -> tuple[str, list[int]]:
    """Decode `enc` line by line in one vectorized pass over its UTF-32 code points: ``(text, bad)``.

    `bad` lists the numbers, from 0, of the '\\n'-separated lines that hold
    what the scalar scan must judge: a stray lowercase letter, a code segment
    unknown, for '\\n' or over four letters long, an empty run or an odd count
    of '@'s. `text` joins by '\\n' each line's decoding, what `translit.decode`
    returns in either mode, with every line in `bad` left empty.
    """
    a = np.frombuffer(enc.encode(_UTF32, "surrogatepass"), np.uint32)
    n = a.size
    if not n:
        return "", []
    s = _per_thread.scratch if n <= _SCRATCH_MAX else _Scratch()
    # Each subtraction wraps below 'A' (or 'a'), so one compare tests the range.
    upper = np.less(np.subtract(a, 65, out=s.array("u32", np.uint32, n)), 26, out=s.array("upper", bool, n))
    lower = np.less(np.subtract(a, 97, out=s.array("u32", np.uint32, n)), 26, out=s.array("lower", bool, n))
    keep = s.array("keep", bool, n)
    keep.fill(True)
    mask = s.array("mask", bool, n)  # a boolean temporary
    found = []  # positions of what only the scan can judge
    at = np.equal(a, 64, out=mask).nonzero()[0]
    if at.size:
        # Number the '@'s 0, 1, 2, ... in order. A character other than '@' is
        # inside a run iff an odd number of '@'s come before it. Inside a run
        # '@@' stands for one '@' and a lone '@' closes it, so '@' number k is
        # kept iff k is odd and '@' number k + 1 follows it at once.
        # The count of '@'s so far; a uint8 sum wraps at 256, which keeps its parity.
        parity = np.cumsum(mask, dtype=np.uint8, out=s.array("parity", np.uint8, n))
        inside = np.bitwise_and(parity, 1, out=parity).view(bool)
        if at.size & 1 or np.logical_and(inside, np.equal(a, 10, out=mask), out=mask).any():
            # Empty each line with an odd count (its parity after differs from before) and decode again.
            odd = np.diff(np.append(inside[a == 10], at.size & 1), prepend=0).nonzero()[0]
            lines = np.array(enc.split("\n"), object)
            lines[odd] = ""
            text, bad = kernel_lines("\n".join(lines), cb)
            return text, sorted(odd.tolist() + bad)
        # adj[k]: '@' number k follows '@' number k - 1 at once; False at both ends.
        adj = np.zeros(at.size + 1, bool)
        np.equal(np.diff(at), 1, out=adj[1:-1])
        kept = adj[2::2]  # adj[k + 1] for each odd k
        # An even-numbered '@' in a group of exactly two opens an empty run.
        found.append(at[::2][adj[1::2] & ~adj[:-1:2] & ~kept])
        keep[at[::2]] = False
        keep[at[1::2]] = kept
        outside = np.logical_not(inside, out=inside)
        upper &= outside
        lower &= outside
    letter = np.logical_or(upper, lower, out=s.array("letter", bool, n))
    # A lowercase letter that continues no code is stray.
    mask[0] = True
    np.logical_not(letter[:-1], out=mask[1:])
    found.append(np.logical_and(mask, lower, out=mask).nonzero()[0])
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
        found.append(cont.nonzero()[0] + 1)  # a code segment longer than any code of the table
        # Every id is in the table; "clip" only spares numpy a buffered copy.
        out = table.take(ids, mode="clip", out=s.array("out", np.uint32, n))
        found.append(np.logical_and(np.equal(out, _NO_CODE, out=mask), upper, out=mask).nonzero()[0])
        # out = a where no code starts: a + upper * (out - a), exact in uint32.
        out -= a
        out *= upper
        out += a
        keep &= np.logical_not(lower, out=lower)
    marks = np.concatenate(found)
    bad = []
    if marks.size:
        # Line i runs from ends[i] + 1 up to ends[i + 1], its '\n' or the end of `enc`.
        ends = np.concatenate(([-1], np.equal(a, 10, out=mask).nonzero()[0], [n]))
        bad = np.unique(np.searchsorted(ends, marks) - 1).tolist()
        for i in bad:
            keep[ends[i] + 1 : ends[i + 1]] = False
    return str(out.compress(keep), _UTF32, "surrogatepass"), bad
