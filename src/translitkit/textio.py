"""The one reader for line-oriented input: strict UTF-8, in blocks of whole lines.

Every file and stream the toolkit reads as text comes through here. Only
``\\n`` ends a line. A ``\\r`` before it belongs to the terminator; any other
``\\r`` stays in the text, so writing ``text + end`` back reproduces the input
byte for byte. `read_lines` drops one leading BOM, so every loaded file reads
the same with or without one; `read_blocks`, which the stdin filters use, keeps
it, so they give back their input byte for byte.
"""

from __future__ import annotations

from typing import BinaryIO, Iterator

from .errors import InputError

#: Bytes asked of the stream per read. A block holds the whole lines these
#: bytes complete, so it is at most about this size unless one line is longer.
BLOCK_SIZE = 1 << 16

#: The byte-order mark; `read_lines` drops one at the start of its input.
BOM = "\ufeff"


def read_blocks(stream: BinaryIO, name: str) -> Iterator[str]:
    """Yield the decoded input in blocks of whole lines, terminators included.

    Every block but the last ends in ``\\n``. `stream` is a buffered binary
    stream; each read takes what it has ready, up to BLOCK_SIZE bytes, so lines
    arriving on a pipe are not held back. Invalid UTF-8 raises InputError naming
    `name` and the absolute byte offset, after yielding the whole lines before
    the offending one.
    """
    offset = 0  # absolute byte offset of pending[0]
    pending = bytearray()
    while chunk := stream.read1(BLOCK_SIZE):
        cut = chunk.rfind(b"\n") + 1
        if not cut:  # no line ends in this chunk
            pending += chunk
            continue
        pending += chunk[:cut]
        yield from _decode(pending, offset, name)
        offset += len(pending)
        pending = bytearray(chunk[cut:])
    if pending:
        yield from _decode(pending, offset, name)


def _decode(data: bytearray, offset: int, name: str) -> Iterator[str]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        good = data.rfind(b"\n", 0, exc.start) + 1
        if good:
            yield data[:good].decode("utf-8")
        raise InputError(f"{name}: invalid UTF-8 at byte offset {offset + exc.start}") from exc
    yield text


def split_lines(block: str) -> Iterator[tuple[str, str]]:
    """Yield ``(text, end)`` per line of a block; ``end`` is ``"\\n"``, ``"\\r\\n"`` or ``""``."""
    lines = block.split("\n")
    last = lines.pop()  # "" when the block ends in "\n"
    for line in lines:
        if line.endswith("\r"):
            yield line[:-1], "\r\n"
        else:
            yield line, "\n"
    if last:
        yield last, ""


def read_lines(stream: BinaryIO, name: str) -> Iterator[tuple[str, str]]:
    """Yield ``(text, end)`` per line of `stream`; the last line's ``end`` may be ``""``.

    One leading BOM is dropped; a BOM anywhere else is text. Invalid UTF-8
    raises InputError as `read_blocks` does, its offset counting the BOM's bytes.
    """
    first = True
    for block in read_blocks(stream, name):
        yield from split_lines(block.removeprefix(BOM) if first else block)
        first = False


def read_file(path: str) -> Iterator[tuple[str, str]]:
    """`read_lines` over the file at `path`; errors name the path."""
    with open(path, "rb") as fh:
        yield from read_lines(fh, path)
