import io
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from translitkit.cli import main
from translitkit.errors import ConfigError, FormatError, InputError
from translitkit.freqanalysis import (
    DEFAULT_SCRIPT_RANGES,
    FrequencyTable,
    ScriptRange,
    merged_charset,
    read_tsv,
    scan_corpus,
    scan_file,
    write_tsv,
)

TIBETAN = ScriptRange("Tibetan", ((0x0F00, 0x0FFF),))


def test_scan_counts_and_scripts():
    table = scan_corpus(["ཀཀཁ"], [TIBETAN])
    assert table.counts == {0x0F40: 2, 0x0F41: 1}
    assert table.script_of == {0x0F40: "Tibetan", 0x0F41: "Tibetan"}
    assert table.total_chars == 3


def test_scan_empty():
    table = scan_corpus([], [TIBETAN])
    assert table.counts == {}
    assert table.total_chars == 0
    assert table.scripts == frozenset({"Tibetan"})


def test_scan_assigns_other():
    table = scan_corpus(["ཀx "], [TIBETAN])
    assert table.script_of[ord("x")] == "other"
    assert table.script_of[ord(" ")] == "other"


def test_first_matching_range_wins():
    a = ScriptRange("A", ((0x100, 0x1FF),))
    b = ScriptRange("B", ((0x180, 0x2FF),))
    table = scan_corpus([chr(0x180)], [a, b])
    assert table.script_of[0x180] == "A"


def test_scan_matches_generator_histogram():
    # oracle: the corpus generator's own tallies
    rng = random.Random(99)
    pool = [chr(cp) for cp in range(0x0F40, 0x0F60)]
    expected: Counter[str] = Counter()
    lines = []
    for _ in range(100):
        line = "".join(rng.choice(pool) for _ in range(100))
        expected.update(line)
        lines.append(line)
    table = scan_corpus(lines, [TIBETAN])
    assert table.counts == {ord(ch): n for ch, n in expected.items()}
    assert table.total_chars == 10_000


def test_charset_order_and_tiebreak():
    table = FrequencyTable(
        {0x0F40: 5, 0x0F41: 2, 0x0F42: 2},
        {0x0F40: "Tibetan", 0x0F41: "Tibetan", 0x0F42: "Tibetan"},
        frozenset({"Tibetan"}),
    )
    assert merged_charset(table, 1, ["Tibetan"]) == [0x0F40, 0x0F41, 0x0F42]
    assert merged_charset(table, 3, ["Tibetan"]) == [0x0F40]


def test_charset_unknown_script():
    table = scan_corpus(["ཀ"], [TIBETAN])
    with pytest.raises(ConfigError, match="Klingon"):
        merged_charset(table, 1, ["Klingon"])


def test_charset_known_but_absent_script_is_empty():
    table = scan_corpus(["ཀ"], DEFAULT_SCRIPT_RANGES)
    assert merged_charset(table, 1, ["Mongolian"]) == []


def test_charset_min_count_one_covers_all_in_range():
    table = scan_corpus(["ཀཁགཀ"], [TIBETAN])
    got = merged_charset(table, 1, ["Tibetan"])
    assert sorted(got) == sorted(table.counts)
    assert len(got) == len(set(got))


def test_merged_charset_skips_other():
    table = scan_corpus(["ཀxᠠ"], DEFAULT_SCRIPT_RANGES)
    merged = merged_charset(table)
    assert ord("x") not in merged
    assert set(merged) == {0x0F40, 0x1820}


lines_strategy = st.lists(
    st.text(alphabet=st.sampled_from("ཀཁགabc ᠠᠡ"), max_size=30), max_size=20
)


@given(lines_a=lines_strategy, lines_b=lines_strategy)
def test_additivity(lines_a, lines_b):
    ranges = DEFAULT_SCRIPT_RANGES
    combined = scan_corpus(lines_a + lines_b, ranges)
    a, b = scan_corpus(lines_a, ranges), scan_corpus(lines_b, ranges)
    assert combined.counts == dict(Counter(a.counts) + Counter(b.counts))
    assert combined.script_of == {**a.script_of, **b.script_of}
    assert combined.scripts == a.scripts | b.scripts


def test_tsv_roundtrip():
    table = scan_corpus(["ཀཀཁ mixed ᠠ"], DEFAULT_SCRIPT_RANGES)
    buf = io.StringIO()
    write_tsv(table, buf)
    loaded = read_tsv(io.BytesIO(buf.getvalue().encode()))
    assert loaded.counts == table.counts
    assert loaded.script_of == table.script_of
    assert loaded.scripts == table.scripts
    assert loaded.digest() == table.digest()


def test_tsv_sorted_by_count():
    table = scan_corpus(["ཀཀཁ"], [TIBETAN])
    buf = io.StringIO()
    write_tsv(table, buf)
    rows = [line for line in buf.getvalue().splitlines() if not line.startswith("#")]
    counts = [int(r.split("\t")[3]) for r in rows]
    assert counts == sorted(counts, reverse=True)


def test_tsv_rejects_duplicates():
    bad = "3904\tU+0F40\tTibetan\t2\n3904\tU+0F40\tTibetan\t1\n"
    with pytest.raises(Exception, match="line 2"):
        read_tsv(io.BytesIO(bad.encode()))


def test_tsv_rejects_bad_fields():
    with pytest.raises(FormatError):
        read_tsv(io.BytesIO("3904\tU+0F41\tTibetan\t2\n".encode()))  # hex mismatch
    with pytest.raises(FormatError):
        read_tsv(io.BytesIO("3904\tU+0F40\tTibetan\t0\n".encode()))  # non-positive count


@pytest.mark.parametrize(
    "row, message",
    [
        ("1114112\tU+110000\tother\t1", "line 2: code point '1114112' out of range"),
        ("-1\tU+-1\tother\t1", "line 2: code point '-1' out of range"),
        ("55296\tU+D800\tTibetan\t1", "line 2: code point U\\+D800 is a surrogate"),
    ],
)
def test_tsv_rejects_impossible_code_points(tmp_path, capsys, row, message):
    text = f"#scripts=Tibetan\n{row}\n3904\tU+0F40\tTibetan\t2\n"
    with pytest.raises(FormatError, match=message):
        read_tsv(io.BytesIO(text.encode()))
    freq = tmp_path / "freq.tsv"
    freq.write_text(text, encoding="utf-8")
    assert main(["build-codebook", "--freq", str(freq), "--strategy", "basic"]) == 2
    assert capsys.readouterr().err.startswith(f"error: FormatError: {freq} line 2: code point")


def test_scan_file_reports_byte_offset(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_bytes("ཀ".encode("utf-8") + b"\xff\xfe" + b"abc\n")
    with pytest.raises(InputError, match="byte offset 3"):
        scan_file(str(path), [TIBETAN])


def test_scan_file_skips_bom_and_newlines(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_bytes("﻿ཀཁ\nཀ\n".encode("utf-8"))
    table = scan_file(str(path), [TIBETAN])
    assert table.counts == {0x0F40: 2, 0x0F41: 1}


def test_script_range_validation():
    with pytest.raises(ValueError):
        ScriptRange("Bad", ((0x20, 0x10),))
    with pytest.raises(ValueError):
        ScriptRange("Bad", ((0x10, 0x30), (0x20, 0x40)))
    with pytest.raises(ValueError):
        ScriptRange("other", ((0x10, 0x20),))


# --- a row loads only as `write_tsv` writes it ---------------------------------


def _tsv(table: FrequencyTable) -> str:
    buf = io.StringIO()
    write_tsv(table, buf)
    return buf.getvalue()


@pytest.mark.parametrize(
    "row, message",
    [
        ("3_904\tU+0F40\tTibetan\t2", "code point '3_904' is not a decimal of 0 or more"),
        ("+3904\tU+0F40\tTibetan\t2", "code point '+3904' is not a decimal of 0 or more"),
        (" 3904\tU+0F40\tTibetan\t2", "code point ' 3904' is not a decimal of 0 or more"),
        ("03904\tU+0F40\tTibetan\t2", "code point '03904' is not a decimal of 0 or more"),
        ("3904\tU+0x0F40\tTibetan\t2", "hex column 'U+0x0F40' is not U+0F40"),
        ("3904\tU+f40\tTibetan\t2", "hex column 'U+f40' is not U+0F40"),
        ("3904\t0F40\tTibetan\t2", "hex column '0F40' is not U+0F40"),
        ("3904\tU+0F40\tTibetan\t1_0", "count '1_0' is not a decimal of 1 or more"),
        ("3904\tU+0F40\tTibetan\t+5", "count '+5' is not a decimal of 1 or more"),
    ],
)
def test_tsv_takes_each_number_only_as_written(tmp_path, capsys, row, message):
    text = f"#scripts=Tibetan\n3905\tU+0F41\tTibetan\t20\n{row}\n"
    with pytest.raises(FormatError) as info:
        read_tsv(io.BytesIO(text.encode()), "freq.tsv")
    assert str(info.value) == f"freq.tsv line 3: {message}"
    freq = tmp_path / "freq.tsv"
    freq.write_text(text, encoding="utf-8")
    assert main(["build-codebook", "--freq", str(freq), "--strategy", "basic"]) == 2
    assert capsys.readouterr().err == f"error: FormatError: {freq} line 3: {message}\n"


_CODE_POINTS = st.one_of(st.integers(0, 0xD7FF), st.integers(0xE000, 0x10FFFF))


@st.composite
def _tables(draw, min_rows=0):
    rows = draw(st.dictionaries(
        _CODE_POINTS, st.tuples(st.integers(1, 10**6), st.sampled_from(["Tibetan", "Mongolian", "other"])),
        min_size=min_rows, max_size=8,
    ))
    script_of = {cp: script for cp, (_, script) in rows.items()}
    scripts = draw(st.frozensets(st.sampled_from(["Tibetan", "Uyghur"])))
    scripts |= {script for script in script_of.values() if script != "other"}
    return FrequencyTable({cp: n for cp, (n, _) in rows.items()}, script_of, scripts)


@given(table=_tables())
def test_tsv_reads_back_what_it_wrote(table):
    assert read_tsv(io.BytesIO(_tsv(table).encode())) == table


def _respellings(cell: str):
    """`cell` with a sign, space, '_', '0' or '0x' put in, lowercased or without its 'U+'."""
    insert = st.tuples(st.integers(0, len(cell)), st.sampled_from(["_", "+", "-", " ", "0", "0x"]))
    return st.one_of(
        insert.map(lambda t: cell[: t[0]] + t[1] + cell[t[0] :]),
        st.just(cell.lower()),
        st.just(cell.removeprefix("U+")),
    )


@given(table=_tables(min_rows=1), data=st.data())
def test_tsv_with_a_cell_changed_fails_at_its_line_or_resaves_as_written(table, data):
    """A changed number cell is a FormatError naming its line, or its row re-saves as itself.

    A changed count may move its row, so the re-saved lines are compared as a multiset.
    """
    lines = _tsv(table).split("\n")  # the header, the rows and "" after the last '\n'
    row = data.draw(st.integers(1, len(lines) - 2))
    cells = lines[row].split("\t")
    col = data.draw(st.sampled_from([0, 1, 3]))
    cells[col] = data.draw(st.one_of(_respellings(cells[col]), st.text("0123456789ABCDEFabcdefU+x_- ", max_size=8)))
    lines[row] = "\t".join(cells)
    try:
        loaded = read_tsv(io.BytesIO("\n".join(lines).encode()), "freq.tsv")
    except FormatError as exc:
        assert str(exc).startswith(f"freq.tsv line {row + 1}: ")
        return
    assert sorted(_tsv(loaded).split("\n")) == sorted(lines)
