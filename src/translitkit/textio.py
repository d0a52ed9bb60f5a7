"""The one reader for line-oriented input: strict UTF-8, terminators kept apart.

Only ``\\n`` ends a line. A ``\\r`` before it belongs to the terminator; any other
``\\r`` stays in the text, so writing ``text + end`` back reproduces the input
byte for byte.
"""

from __future__ import annotations

from typing import BinaryIO, Iterator

from .errors import InputError


def read_lines(stream: BinaryIO, name: str) -> Iterator[tuple[str, str]]:
    """Yield ``(text, end)`` per line; ``end`` is ``"\\n"``, ``"\\r\\n"`` or ``""`` (last line).

    Invalid UTF-8 raises InputError naming `name` and the absolute byte offset.
    """
    offset = 0
    for raw in stream:
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{name}: invalid UTF-8 at byte offset {offset + exc.start}") from exc
        offset += len(raw)
        if line.endswith("\r\n"):
            yield line[:-2], "\r\n"
        elif line.endswith("\n"):
            yield line[:-1], "\n"
        else:
            yield line, ""
