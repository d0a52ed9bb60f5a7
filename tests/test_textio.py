import io

import pytest

from translitkit.errors import InputError
from translitkit.textio import read_lines


def test_only_lf_ends_a_line():
    data = b"a\r\nb\rc\n\r\nd\r"
    assert list(read_lines(io.BytesIO(data), "x")) == [
        ("a", "\r\n"),
        ("b\rc", "\n"),
        ("", "\r\n"),
        ("d\r", ""),
    ]
    assert list(read_lines(io.BytesIO(b""), "x")) == []


def test_invalid_utf8_offset_is_absolute():
    data = "ཀ\n".encode("utf-8") * 3000 + b"ok\xc3(\n"
    with pytest.raises(InputError, match=r"^x: invalid UTF-8 at byte offset 12002$"):
        list(read_lines(io.BytesIO(data), "x"))
