import json
import random

import pytest

from translitkit.bpe import BpeModel
from translitkit.codebook import build_basic
from translitkit.errors import ComputationError
from translitkit.metrics import (
    compression_report,
    file_compression,
    format_human,
    token_compression,
)
from translitkit.translit import to_latin


def test_three_byte_char_to_one_byte_code():
    original = "ཀ" * 100  # 3 UTF-8 bytes each
    encoded = "B" * 100
    ob, eb, ratio = file_compression(original, encoded)
    assert (ob, eb) == (300, 100)
    assert ratio == 3.0


def test_identical_streams():
    assert file_compression("same", "same")[2] == 1.0


def test_empty_streams_flagged():
    report = compression_report([], [])
    assert report.empty
    assert report.original_bytes == 0
    assert report.file_ratio == 1.0


def test_encoded_empty_is_error():
    with pytest.raises(ComputationError):
        file_compression("text", "")


def test_token_ratio_four_to_one():
    # oracle: each original char is 4 bytes -> 4 fallback tokens; codes are 1 token
    model = BpeModel(["B", "C", "D"], [], byte_fallback=True)
    chars = [0x10000, 0x10001, 0x10002]
    cb = build_basic(chars)
    original = "".join(chr(cp) for cp in chars) * 10
    encoded = to_latin(original, cb)
    ot, et, ratio = token_compression(original, encoded, model)
    assert ot == 4 * 30
    assert et == 30
    assert ratio == 4.0


def test_file_ratio_matches_byte_oracle(rng):
    # single-script corpus: ratio == (source bytes per char) / (mean code length)
    chars = [0x0F40, 0x0F41, 0x0F42]
    cb = build_basic(chars)
    lines = ["".join(rng.choice("ཀཁག") for _ in range(50)) for _ in range(40)]
    enc = [to_latin(line, cb) for line in lines]
    ob, eb, ratio = file_compression(lines, enc)
    expected_ob = sum(len(l.encode("utf-8")) for l in lines)
    expected_eb = sum(len(e.encode("utf-8")) for e in enc)
    assert (ob, eb) == (expected_ob, expected_eb)
    assert ratio == expected_ob / expected_eb
    assert ratio == 3.0  # all three codes are single letters


def test_report_json_fields():
    report = compression_report("ཀཀ", "BB", BpeModel(["B", "BB"], [("B", "B")]), "bo")
    record = json.loads(report.to_json())
    assert record == {
        "original_bytes": 6,
        "encoded_bytes": 2,
        "file_ratio": 3.0,
        "original_tokens": 2,  # two unmerged source chars
        "encoded_tokens": 1,  # "BB" merges to one token
        "token_ratio": 2.0,
        "language_tag": "bo",
        "empty": False,
    }


def test_report_without_model():
    report = compression_report("ཀ", "B")
    assert report.original_tokens == 0
    assert report.token_ratio is None


def test_reports_reproducible():
    model = BpeModel(list("Bab"), [])
    a = compression_report("ཀཁ ab", "BC @ab@", model, "bo")
    b = compression_report("ཀཁ ab", "BC @ab@", model, "bo")
    assert a == b


def test_format_human():
    report = compression_report("ཀཀཀ", "BBB")
    table = format_human([("basic", report)])
    lines = table.splitlines()
    assert "Method" in lines[0] and "File Compr." in lines[0]
    assert "basic" in lines[1] and "3.00x" in lines[1]
