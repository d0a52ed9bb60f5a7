import io

import pytest

from translitkit.errors import InputError
from translitkit.textio import BLOCK_SIZE, read_blocks, read_lines


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
    with pytest.raises(InputError, match=r"^x: invalid UTF-8 at byte offset 5$"):  # the dropped BOM counts
        list(read_lines(io.BytesIO(b"\xef\xbb\xbfok\xff\n"), "x"))


def test_blocks_hold_whole_lines():
    data = b"".join(b"%05d\n" % i for i in range(40_000))  # 240,000 bytes
    blocks = list(read_blocks(io.BytesIO(data), "x"))
    assert len(blocks) > 3
    assert all(block.endswith("\n") for block in blocks)
    assert "".join(blocks).encode() == data


def test_line_longer_than_a_block_and_crlf_split_across_reads():
    long_line = "ཀ" * BLOCK_SIZE  # three blocks' worth of bytes
    head = "a" * (BLOCK_SIZE - 1) + "\r"  # "\r" is the last byte of the first read
    data = f"{head}\nb\r\n{long_line}\r\nc".encode("utf-8")
    assert data[BLOCK_SIZE - 1 : BLOCK_SIZE + 1] == b"\r\n"
    assert list(read_lines(io.BytesIO(data), "x")) == [
        ("a" * (BLOCK_SIZE - 1), "\r\n"),
        ("b", "\r\n"),
        (long_line, "\r\n"),
        ("c", ""),
    ]


def test_invalid_utf8_in_a_later_block_yields_the_lines_before_it():
    good = b"ok\n" * 30_000  # 90,000 bytes: the bad byte is in the second read
    data = good + b"fine\nbad\xff\nnever\n"
    lines = []
    with pytest.raises(InputError, match=r"^x: invalid UTF-8 at byte offset 90008$"):
        for text, _ in read_lines(io.BytesIO(data), "x"):
            lines.append(text)
    assert lines == ["ok"] * 30_000 + ["fine"]


def test_read_lines_drops_one_leading_bom_and_read_blocks_keeps_it():
    bom = "\ufeff"
    data = f"{bom}{bom}a\r\n{bom}b\n".encode("utf-8")
    assert list(read_lines(io.BytesIO(data), "x")) == [(f"{bom}a", "\r\n"), (f"{bom}b", "\n")]
    assert "".join(read_blocks(io.BytesIO(data), "x")).encode("utf-8") == data
    assert list(read_lines(io.BytesIO(bom.encode("utf-8")), "x")) == []
    later = b"a" * (BLOCK_SIZE - 1) + b"\n" + data  # the BOM opens the second block, not the file
    assert len(list(read_blocks(io.BytesIO(later), "x"))) == 2
    assert list(read_lines(io.BytesIO(later), "x"))[1:] == [(f"{bom}{bom}a", "\r\n"), (f"{bom}b", "\n")]
