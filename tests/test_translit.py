import itertools
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from translitkit import kernel, translit
from translitkit.codebook import Codebook, CodebookEntry, build_basic
from translitkit.errors import DecodeError, FormatError, TranslitError
from translitkit.translit import (
    MODES,
    DecodeResult,
    decode,
    decode_lines,
    from_latin,
    scan_decode,
    to_latin,
    translator,
    verify_roundtrip,
)

from reference import RefDecodeError, ref_decode, ref_encode

CB = build_basic([0x0F40, 0x0F41])  # ཀ -> "B", ཁ -> "C"


def _kernel_text(enc: str, cb: Codebook) -> str | None:
    """The text of one `kernel.kernel_lines` pass over `enc`, or None if it marks a line."""
    text, bad = kernel.kernel_lines(enc, cb)
    return None if bad else text


def test_direct_mapping():
    assert to_latin("ཀཁཀ", CB) == "BCB"


def test_unmapped_nonascii_passthrough():
    # U+0F0B tsheg is unmapped and not ASCII: passes through bare
    assert to_latin("ཀ་ཁ", CB) == "B་C"
    assert from_latin("B་C", CB) == "ཀ་ཁ"


def test_preserved_run_with_at_doubling():
    # run "a@" wraps to '@' + 'a@@' + '@': 2 + (number of '@') extra chars
    assert to_latin("ཀa@ཁ", CB) == "B@a@@@C"
    assert from_latin("B@a@@@C", CB) == "ཀa@ཁ"


def test_empty_text():
    assert to_latin("", CB) == ""
    assert from_latin("", CB) == ""


def test_maximal_munch_prefers_longest():
    cb = build_basic([0x0F40, 0x0F41], profile_with_ba())
    assert cb.char_to_code == {0x0F40: "B", 0x0F41: "Ba"}
    assert from_latin("BaB", cb) == "ཁཀ"


def profile_with_ba():
    from translitkit.codespace import CodeSpaceProfile

    return CodeSpaceProfile(
        max_len=2,
        excluded_single_letters=frozenset("ACDEFGHIJKLMNOPQRSTUVWXYZ"),
        two_char_first_letters=("B",),
    )


def test_incoherent_double_at_is_rejected():
    for mode in ("strict", "lenient"):
        with pytest.raises(FormatError) as exc:
            from_latin("@@a@", CB, mode)
        assert exc.value.offset == 0


def test_unterminated_run():
    with pytest.raises(FormatError) as exc:
        from_latin("B@abc", CB)
    assert exc.value.offset == 1


def test_stray_lowercase_is_format_error_in_both_modes():
    for mode in ("strict", "lenient"):
        with pytest.raises(FormatError) as exc:
            from_latin("·x", CB, mode)
        assert exc.value.offset == 1


def test_unknown_segment_strict_vs_lenient():
    with pytest.raises(DecodeError) as exc:
        from_latin("BQC", CB, "strict")
    assert exc.value.segment == "Q"
    assert exc.value.offset == 1

    result = decode("BQC", CB, "lenient")
    assert result.text == "ཀQཁ"
    assert len(result.warnings) == 1


def test_residue_strict_vs_lenient():
    with pytest.raises(DecodeError):
        from_latin("Bx", CB, "strict")
    result = decode("Bx", CB, "lenient")
    assert result.text == "ཀx"
    assert len(result.warnings) == 1


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        decode("B", CB, "fuzzy")


def test_literal_at_roundtrip():
    assert to_latin("@", CB) == "@@@@"
    assert from_latin("@@@@", CB) == "@"


def test_thousand_at_line_matches_reference():
    line = "@" * 1000
    enc = to_latin(line, CB)
    assert enc == ref_encode(line, CB.char_to_code)
    assert from_latin(enc, CB) == ref_decode(enc, CB.code_to_char) == line


def test_run_wrapping_length_invariant():
    for run in ["a", "abc", "a@b", "@@", "XYZ@", "@" * 17]:
        enc = to_latin(run, CB)
        assert len(enc) == len(run) + 2 + run.count("@")


def test_transform_is_lossy_plain_text():
    enc = to_latin("ཀ你ཁ", CB, transform={0x4F60: "ni3"})
    assert enc == "Bni3C"
    # strict decoding refuses the non-reversible residue
    with pytest.raises(Exception):
        from_latin(enc, CB, "strict")


def test_transform_never_shadows_codebook():
    enc = to_latin("ཀ", CB, transform={0x0F40: "ka"})
    assert enc == "B"


def test_translator_reuse_equals_to_latin():
    encode = translator(CB)
    for text in ["", "ཀཁ", "mixed ascii ཀ", "@@@"]:
        assert encode(text) == to_latin(text, CB)


def test_translator_builds_the_codebook_table_once(monkeypatch):
    built = []
    real = translit._code_point_table
    monkeypatch.setattr(translit, "_code_point_table", lambda mapping: built.append(1) or real(mapping))
    cb = build_basic([0x0F40, 0x0F41])
    translator(cb)
    table = cb.encode_table
    assert isinstance(table, list) and len(table) == 0x0F42
    assert to_latin("ཀཁ", cb) == "BC" and translator(cb)("ཁ") == "C"
    assert cb.encode_table is table and len(built) == 1
    # A transform gets a table of its own per call and leaves the codebook's alone.
    assert to_latin("ཀ你", cb, {0x4F60: "ni3"}) == "Bni3"
    assert cb.encode_table is table and len(built) == 2


def test_an_astral_or_negative_key_keeps_the_dict():
    cb = build_basic([0x0F40, 0x1F600])
    char_to_code = dict(cb.char_to_code)
    assert translator(cb)("ཀ😀x") == "BC@x@"
    assert isinstance(cb.encode_table, dict) and cb.char_to_code == char_to_code
    assert to_latin("ཀ你", CB, {-1: "?", 0x4F60: "ni3"}) == "Bni3"


# Reserved letters and '@', line ends, codebook characters, astral characters
# and lone surrogates; the transforms draw keys among all of them.
_ENCODE_ALPHABET = "@aZz \r\n·ཀཁ你😀\U0001d538\ud800\udfff"
_ASTRAL_CB = build_basic([0x0F40, 0x1F600, 0x0F41])


# The empty codebook, and the one-entry codebook once a transform value holds
# its character, leave the encoder no mapped character to mark runs with.
@settings(max_examples=400)
@given(
    cb=st.sampled_from([CB, _ASTRAL_CB, Codebook([], "basic"), build_basic([0x0F40])]),
    text=st.text(st.sampled_from(_ENCODE_ALPHABET) | st.characters(), max_size=40),
    transform=st.dictionaries(
        st.sampled_from([ord(ch) for ch in _ENCODE_ALPHABET]),
        st.text("ab@Z3 ཀཁ😀", min_size=1, max_size=4),
        max_size=6,
    ),
)
def test_translator_with_a_transform_matches_reference(cb, text, transform):
    assert translator(cb, transform)(text) == ref_encode(text, cb.char_to_code, transform)


# CB's lowest mapped character, ཀ, marks its runs; the transforms' values hold
# it, or every mapped character, or the code points the fallback picks first.
@pytest.mark.parametrize("cb", [CB, Codebook([], "basic")], ids=["two-entry", "empty"])
@pytest.mark.parametrize("transform", [
    None,
    {0x4F60: "ཀ"},
    {0x4F60: "ཀ@", 0x00B7: "aཁ"},
    {0x4F60: "\x00\x01", 0x00B7: "ཁཀ\x02"},
], ids=["none", "sentinel", "all-mapped", "first-free"])
@pytest.mark.parametrize("text", [
    "", "ཀ", "ཀa", "aཀ", "a@ཀ@b", "ཀ@", "@", "@@", "Za", "ཀཁ你·",
    "a你b", "\x00a\x01@\x02", "ཁa·@ཀ", "a\nb @ ཀ\n",
])
def test_encode_marks_runs_exactly(cb, transform, text):
    assert translator(cb, transform)(text) == ref_encode(text, cb.char_to_code, transform)


# --- property tests -------------------------------------------------------

MIXED_ALPHABET = (
    "ཀཁགངཅ" "ᠠᠡᠢ" "ابت" "你好" "@Aa Bb zZ" "xyz" "·،༔!?39\n\t" "😀é་"
)


@settings(max_examples=300)
@given(text=st.text(alphabet=MIXED_ALPHABET, max_size=80))
def test_roundtrip_mixed(text, default_codebook):
    assert from_latin(to_latin(text, default_codebook), default_codebook) == text


@settings(max_examples=150)
@given(text=st.text(max_size=60))
def test_roundtrip_arbitrary_unicode(text, default_codebook):
    assert from_latin(to_latin(text, default_codebook), default_codebook) == text


@settings(max_examples=200)
@given(text=st.text(alphabet=MIXED_ALPHABET, max_size=80))
def test_encode_matches_reference(text, default_codebook):
    assert to_latin(text, default_codebook) == ref_encode(text, default_codebook.char_to_code)


@settings(max_examples=200)
@given(text=st.text(alphabet=MIXED_ALPHABET, max_size=80))
def test_decode_matches_reference_on_valid_input(text, default_codebook):
    enc = to_latin(text, default_codebook)
    assert from_latin(enc, default_codebook) == ref_decode(enc, default_codebook.code_to_char)


@settings(max_examples=200)
@given(indices=st.lists(st.sampled_from(range(162)), min_size=1, max_size=8))
def test_code_concatenations_decode_uniquely(indices, default_codebook):
    entries = default_codebook.entries
    enc = "".join(entries[i].code for i in indices)
    expected = "".join(chr(entries[i].codepoint) for i in indices)
    assert from_latin(enc, default_codebook) == expected


def test_verify_roundtrip_counts(default_codebook, rng):
    lines = ["", "ཀ", "@" * 50]
    pool = MIXED_ALPHABET.replace("\n", "")
    for _ in range(200):
        lines.append("".join(rng.choice(pool) for _ in range(rng.randint(0, 60))))
    report = verify_roundtrip(lines, default_codebook)
    assert report.total == len(lines)
    assert report.failures == 0
    assert report.first_failure_offset is None


def test_verify_roundtrip_empty_stream(default_codebook):
    report = verify_roundtrip([], default_codebook)
    assert report.total == 0
    assert report.failures == 0


def test_verify_roundtrip_counts_translit_errors_and_lets_bugs_escape(default_codebook, monkeypatch):
    import translitkit.kernel as kernel_mod
    import translitkit.translit as translit_mod

    def failing(exc):
        def decode(*args, **kwargs):
            raise exc

        return decode

    def mark_every_line(enc, cb):
        ends = enc.count("\n")
        return "\n" * ends, list(range(ends + 1))

    # The kernel marks every line, so each goes to the scalar scan, whose errors verify counts.
    monkeypatch.setattr(kernel_mod, "kernel_lines", mark_every_line)
    monkeypatch.setattr(translit_mod, "scan_decode", failing(DecodeError("no match")))
    report = verify_roundtrip(["ཀ", "ཁ"], default_codebook)
    assert (report.total, report.failures, report.first_failure_offset) == (2, 2, 0)

    monkeypatch.setattr(translit_mod, "scan_decode", failing(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        verify_roundtrip(["ཀ"], default_codebook)


# --- the vectorized kernel against the scalar scan ---------------------------


def _codebook(codes: list[str]) -> Codebook:
    return Codebook([CodebookEntry(0x4E00 + i, code, i + 1, 0) for i, code in enumerate(codes)], "basic")


# Codes of one to four letters, all in the kernel's table, and of up to seven,
# whose five- to seven-letter codes the kernel leaves to the scan; both share
# prefixes so that greedy repairs happen.
LONG_CB = _codebook(["B", "C", "Q", "Ba", "Bz", "Bab", "Baz", "Zzz", "Babc", "Qxyz", "Dq"])
SPARSE_CB = _codebook(["B", "Ba", "Bab", "Babcd", "Babcde", "Xyzzyqa", "Q"])
_RUN = re.compile("@(?:[^@]|@@)*+@")  # a closed '@' run, read as `ref_decode` reads it


def _has_long_segment(enc: str) -> bool:
    """Whether `enc` holds a code segment of five or more letters outside '@' runs."""
    return re.search("[A-Z][a-z]{4}", _RUN.sub("@", enc)) is not None
# Pieces of decoder input besides whole codes: letters, '@' groups, line ends
# and passthrough characters (BMP and not), so that repairs and errors occur.
PIECES = list("ABQXZabxyz@\n\r é·😀𝔸") + ["@@", "@@@", "@@@@", "@a@", "ཀ", "一"]


def _as_outcome(out):
    """A DecodeResult or a raised TranslitError, in a form that compares by value."""
    if isinstance(out, TranslitError):
        return type(out), out.offset, str(out)
    return out.text, out.warnings


def _outcome(enc: str, cb: Codebook, mode: str, decoder=scan_decode):
    try:
        return _as_outcome(decoder(enc, cb, mode))
    except TranslitError as exc:
        return _as_outcome(exc)


def _encoded(cb: Codebook):
    return st.lists(
        st.one_of(st.sampled_from(sorted(cb.code_to_char)), st.sampled_from(PIECES)), max_size=40
    ).map("".join)


@pytest.mark.parametrize("name", ["default", "long", "sparse"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_kernel_matches_scalar_scan(name, data, default_codebook):
    cb = {"default": default_codebook, "long": LONG_CB, "sparse": SPARSE_CB}[name]
    enc = data.draw(_encoded(cb))
    text = _kernel_text(enc, cb)
    if text is None:
        # The kernel leaves the scan only errors, repairs, runs across '\n' and
        # code segments of five or more letters.
        if "\n" not in enc and not _has_long_segment(enc):
            with pytest.raises(TranslitError):
                scan_decode(enc, cb, "strict")
        return
    for mode in MODES:
        assert _outcome(enc, cb, mode) == (text, [])
    assert ref_decode(enc, cb.code_to_char) == text


# What strict scan_decode raises for each kind of error the oracle finds, and a
# word of its message.
_SCAN_ERRORS = {
    "unterminated run": (FormatError, "unterminated"),
    "empty run": (FormatError, "empty"),
    "stray lowercase": (FormatError, "stray lowercase"),
    "unknown segment": (DecodeError, "segment"),
}


@pytest.mark.parametrize("name", ["default", "long", "sparse"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_strict_scan_agrees_with_the_reference_on_text_and_errors(name, data, default_codebook):
    cb = {"default": default_codebook, "long": LONG_CB, "sparse": SPARSE_CB}[name]
    enc = data.draw(_encoded(cb))
    try:
        text = ref_decode(enc, cb.code_to_char)
    except RefDecodeError as ref:
        cls, word = _SCAN_ERRORS[ref.kind]
        with pytest.raises(cls, match=word) as raised:
            scan_decode(enc, cb, "strict")
        assert raised.value.offset == ref.offset
    else:
        assert scan_decode(enc, cb, "strict") == DecodeResult(text, [])


NEWLINE_CB = build_basic([0x0F40, 0x0A, 0x0D])  # '\n' -> "C", '\r' -> "D"


def _good_lines(cb: Codebook, n: int) -> list[str]:
    """`n` encodings of text with '@' runs, codes and passthrough, the same on every call."""
    rng = random.Random(n)
    alphabet = "ab@Z ·😀" + "".join(map(chr, cb.char_to_code))
    return [to_latin("".join(rng.choices(alphabet, k=rng.randint(0, 30))), cb) for _ in range(n)]


@pytest.mark.parametrize("name", ["default", "long", "sparse", "newline"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_decode_lines_matches_decode_line_by_line(name, data, default_codebook):
    cb = {"default": default_codebook, "long": LONG_CB, "sparse": SPARSE_CB, "newline": NEWLINE_CB}[name]
    encoded = data.draw(st.lists(_encoded(cb), max_size=8))
    if data.draw(st.booleans()):  # the drawn lines, good or bad, among several hundred good ones
        lines = _good_lines(cb, 300)
        for enc in encoded:
            lines.insert(data.draw(st.integers(0, len(lines))), enc)
        encoded = lines
    for mode in MODES:
        outcomes = decode_lines(encoded, cb, mode)
        assert len(outcomes) == len(encoded)
        assert [_as_outcome(out) for out in outcomes] == [_outcome(enc, cb, mode, decode) for enc in encoded]


@pytest.mark.parametrize("name", ["default", "long", "sparse", "newline"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_lines_decodes_each_line_as_its_own_pass_would(name, data, default_codebook):
    cb = {"default": default_codebook, "long": LONG_CB, "sparse": SPARSE_CB, "newline": NEWLINE_CB}[name]
    line = _encoded(cb).map(lambda enc: enc.replace("\n", ""))
    # A line with an odd count of '@'s in front of a good line that holds '@' runs.
    odd = line.map(lambda enc: enc if enc.count("@") % 2 else enc + "@")
    runs = st.text("ab@Z ཀ", max_size=8).map(lambda text: to_latin(text, cb))
    parts = data.draw(st.lists(line | st.tuples(odd, runs).map("\n".join), max_size=10))
    lines = "\n".join(parts).split("\n")
    text, bad = kernel.kernel_lines("\n".join(lines), cb)
    own = [_kernel_text(enc, cb) for enc in lines]
    assert bad == [i for i, out in enumerate(own) if out is None]
    assert text.split("\n") == ["" if out is None else out for out in own]
    assert all(out == scan_decode(enc, cb).text for enc, out in zip(lines, own) if out is not None)


def test_decode_lines_of_no_lines_is_empty(default_codebook):
    for mode in MODES:
        assert decode_lines([], default_codebook, mode) == []


def test_decode_lines_splits_only_when_each_line_gives_one_piece():
    # "C" decodes to '\n', so one kernel pass over the joined lines gives one piece too many.
    outcomes = decode_lines(["BC", "B", "Q"], NEWLINE_CB, "lenient")
    assert [_as_outcome(out) for out in outcomes] == [
        ("ཀ\n", []),
        ("ཀ", []),
        ("Q", ["offset 0: unknown code segment 'Q'"]),
    ]
    assert [out.text for out in decode_lines(["BD", "B"], NEWLINE_CB)] == ["ཀ\r", "ཀ"]


def _block_outcome(enc: str, cb: Codebook, mode: str) -> tuple:
    text, scans = translit.decode_block(enc, cb, mode)
    return text, [(i, _as_outcome(out)) for i, out in scans.items()]


# Line ends with '@' groups and odd counts of '@' beside them, where pieces are cut.
_LINE_ENDS = st.sampled_from(["\n", "\n\n", "@\n", "\n@", "@@\n@", "@\n@@", "@@@\n", "@x@\n@a@", "\n@@@"])


@pytest.mark.parametrize("name", ["default", "long", "newline"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_decode_block_in_line_end_pieces_matches_one_pass(name, data, default_codebook):
    cb = {"default": default_codebook, "long": LONG_CB, "newline": NEWLINE_CB}[name]
    enc = "".join(data.draw(st.lists(_encoded(cb) | _LINE_ENDS, max_size=16)))
    for mode in MODES:
        want = _block_outcome(enc, cb, mode)
        for most in (1, 7, 64):
            with mock.patch.object(kernel, "_SCRATCH_MAX", most):
                assert _block_outcome(enc, cb, mode) == want


def test_decode_block_takes_runs_of_whole_lines_and_a_long_line_alone(monkeypatch):
    calls = []
    kernel_lines = kernel.kernel_lines
    monkeypatch.setattr(kernel, "kernel_lines", lambda enc, cb: calls.append(enc) or kernel_lines(enc, cb))
    monkeypatch.setattr(kernel, "_SCRATCH_MAX", 8)
    cases = [
        ("B\nC\nBCB", ["B\nC\nBCB"]),  # no longer than the bound: one call
        ("B\nC\nBCB\nC", ["B\nC\nBCB", "C"]),
        ("B\nC\nBCBC\nC", ["B\nC\nBCBC", "C"]),  # a piece of the bound itself
        ("B\nC\nBCBCB\nC", ["B\nC", "BCBCB\nC"]),
        ("BCBCBCBCBC\nB\nC", ["BCBCBCBCBC", "B\nC"]),  # a line longer than the bound goes whole
        ("B\nBCBCBCBCBC", ["B", "BCBCBCBCBC"]),
    ]
    for enc, pieces in cases:
        calls.clear()
        assert translit.decode_block(enc, CB, "lenient")[0] == "\n".join(kernel_lines(p, CB)[0] for p in pieces)
        assert calls == pieces
    # Marked lines keep their numbers in the whole string: pieces "\n\nB@" and "CCCCC@".
    text, scans = translit.decode_block("\n\nB@\nCCCCC@", CB, "strict")
    assert text == "\n\n\n" and list(scans) == [2, 3]


# Every string of up to EXHAUSTIVE_LENGTH characters over `ABab@x`: code letters,
# residue, '@' groups of every parity and a passthrough, under codes of one, two,
# three and five letters (the kernel's table and the scan's long codes).
EXHAUSTIVE_LENGTH = 6
EXHAUSTIVE_CB = _codebook(["A", "B", "Ab", "Bab", "Aabab"])


@pytest.mark.parametrize("mode", MODES)
def test_decode_block_decodes_every_string_up_to_length_6_as_scan_decode_does(mode):
    lines = ["".join(chars) for n in range(EXHAUSTIVE_LENGTH + 1) for chars in itertools.product("ABab@x", repeat=n)]
    assert len(lines) == 55_987
    want = [_outcome(line, EXHAUSTIVE_CB, mode) for line in lines]
    enc = "\n".join(lines)
    for most in (len(enc), 64):  # the whole string in one kernel call, and in pieces of whole lines
        # In a thread of its own, so that arrays kept for the whole string go with the thread.
        with mock.patch.object(kernel, "_SCRATCH_MAX", most), ThreadPoolExecutor(1) as pool:
            text, scans = pool.submit(translit.decode_block, enc, EXHAUSTIVE_CB, mode).result()
        got = [_as_outcome(scans[i]) if i in scans else (line, []) for i, line in enumerate(text.split("\n"))]
        assert len(got) == len(lines)
        wrong = [(line, g, w) for line, g, w in zip(lines, got, want) if g != w]
        assert not wrong, f"{len(wrong)} lines differ from scan_decode, the first: {wrong[:3]}"


# Every string of up to DECODE_LENGTH characters over `ABab@x\n`: the letters above and line
# ends between them. Length 5 (19,608 strings) takes 2–3 s a mode; length 6 (137,257) about 15 s.
DECODE_LENGTH = 5


@pytest.mark.parametrize("mode", MODES)
def test_decode_and_decode_lines_of_every_string_up_to_length_5_match_scan_decode(mode, monkeypatch):
    strings = ["".join(chars) for n in range(DECODE_LENGTH + 1) for chars in itertools.product("ABab@x\n", repeat=n)]
    assert len(strings) == 19_608
    # One of length 6 as well: a warning on a line before an '@' run that reads on past its own line.
    strings.append("Aa\n@\n@")
    # Every string through `decode_block`, whose kernel takes runs of whole lines of at most 64.
    monkeypatch.setattr(translit, "_KERNEL_MIN", 0)
    monkeypatch.setattr(kernel, "_SCRATCH_MAX", 64)
    wrong = [
        (enc, got, want) for enc in strings
        if (got := _outcome(enc, EXHAUSTIVE_CB, mode, decode)) != (want := _outcome(enc, EXHAUSTIVE_CB, mode))
    ]
    assert not wrong, f"{len(wrong)} strings decode unlike scan_decode, the first: {wrong[:3]}"
    lines = [enc for enc in strings if "\n" not in enc]
    got = [_as_outcome(out) for out in decode_lines(lines, EXHAUSTIVE_CB, mode)]
    wrong = [(line, g, w) for line, g in zip(lines, got) if g != (w := _outcome(line, EXHAUSTIVE_CB, mode))]
    assert len(got) == len(lines) and not wrong, f"decode_lines differs from scan_decode on {wrong[:3]}"


@pytest.mark.parametrize("name", ["default", "long"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_decode_of_long_input_matches_scalar_scan(name, data, default_codebook):
    cb = {"default": default_codebook, "long": LONG_CB}[name]
    pad = "".join(sorted(cb.code_to_char)) * 10  # long enough for decode to try the kernel
    enc = pad + data.draw(_encoded(cb)) + pad
    for mode in MODES:
        try:
            got = decode(enc, cb, mode)
        except TranslitError as exc:
            assert (type(exc), exc.offset, str(exc)) == _outcome(enc, cb, mode)
        else:
            assert (got.text, got.warnings) == _outcome(enc, cb, mode)


@pytest.mark.parametrize("mode", MODES)
def test_decode_of_a_long_string_scans_only_its_bad_line(mode, monkeypatch):
    lines = _good_lines(LONG_CB, 3000)
    lines[1700] += "Zq"  # an unknown code
    enc = "\n".join(lines)
    expected = _outcome(enc, LONG_CB, mode)
    if mode == "lenient":  # the warning's offset counts in the whole string
        assert expected[1] == [f"offset {enc.index('Zq')}: unknown code segment 'Zq'"]
    scans = _record_scans(monkeypatch)
    assert _outcome(enc, LONG_CB, mode, decode) == expected
    # Once the bad line raises in strict mode, the string is scanned from that line's start.
    start = sum(len(line) + 1 for line in lines[:1700])
    assert scans == ([(lines[1700], 0)] if mode == "lenient" else [(lines[1700], 0), (enc, start)])


def _record_scans(monkeypatch) -> list[tuple[str, int]]:
    """The string and start of each `scan_decode` call, recorded as they come."""
    scans = []
    real = translit.scan_decode

    def scan(enc, cb, mode, pos=0):
        scans.append((enc, pos))
        return real(enc, cb, mode, pos)

    monkeypatch.setattr(translit, "scan_decode", scan)
    return scans


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bad", ["Zq", "@a", "q", "@@", "Bx"], ids=["code", "run", "stray", "empty-run", "residue"])
def test_decode_scans_a_long_string_from_its_first_raising_line(mode, bad, monkeypatch):
    lines = _good_lines(LONG_CB, 3000)
    lines[1700] += bad
    lines[2200] += "Zq @b"  # a later bad line; "@a" on line 1700 runs on to its '@'
    enc = "\n".join(lines)
    expected = _outcome(enc, LONG_CB, mode)
    scans = _record_scans(monkeypatch)
    assert _outcome(enc, LONG_CB, mode, decode) == expected
    # Each bad line is scanned alone; the string only from a raising line, past the middle.
    whole = [pos for text, pos in scans if text == enc]
    assert len(whole) <= 1 and all(pos > len(enc) // 2 for pos in whole)


_PAD = "B" * 300  # long enough for decode to use the kernel


@pytest.mark.parametrize(
    "enc",
    [
        _PAD + "\nC@a\nb@B\n" + "C" * 10,  # an '@' run across a line end: each of its lines raises alone
        _PAD + "\nBZq\n" + "C" * 5 + "\nB@q\nC",  # a lenient warning, then an error on a later line
        _PAD + "\nZq B\n" + "C" * 5 + "\nBx@a@\r\n" + "B" * 10,  # two bad lines: an unknown code, a residue
    ],
    ids=["run-across-lines", "warning-then-error", "two-bad-lines"],
)
def test_decode_of_hand_made_long_strings_matches_the_scan(enc):
    for mode in MODES:
        assert _outcome(enc, LONG_CB, mode, decode) == _outcome(enc, LONG_CB, mode)


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet=MIXED_ALPHABET + "\r𝔸一七", max_size=120))
def test_kernel_matches_reference_on_valid_input(text, default_codebook):
    for cb in (default_codebook, LONG_CB, SPARSE_CB):
        enc = to_latin(text, cb)
        assert ref_decode(enc, cb.code_to_char) == text
        # A valid encoding is declined exactly when it holds a code of five or more letters.
        assert _kernel_text(enc, cb) == (None if _has_long_segment(enc) else text)


def test_codes_longer_than_the_kernel_table_go_to_the_scan():
    cb = _codebook(["B", "Qabcd", "Babcdefghijklmn", "Cabcdefghijklmnopq"])  # 5, 15 and 18 letters
    for enc, text in [
        ("BQabcd" * 60, "一丁" * 60),
        ("BBabcdefghijklmnCabcdefghijklmnopq" * 20, "一丂七" * 20),
    ]:
        assert _kernel_text(enc, cb) is None
        assert from_latin(enc, cb) == text
    assert _kernel_text("B" * 300, cb) == "一" * 300
    assert _kernel_text("@Qabcd@" + "B" * 300, cb) == "Qabcd" + "一" * 300  # a run holds no code


def test_kernel_rejects_runs_across_line_ends_that_decode_accepts():
    enc = "@a\nb@" + "B" * 300
    assert _kernel_text(enc, CB) is None
    assert from_latin(enc, CB) == "a\nb" + "ཀ" * 300


@pytest.mark.parametrize(
    "enc, expected, kernel_declines",
    [
        ("@@", FormatError, True),  # an empty run
        ("@@@@", "@", False),
        ("@@@@@@", "@@", False),
        ("@@@@@", FormatError, True),  # unterminated
        ("@a@@b@", "a@b", False),
        ("@a@@@", "a@", False),
        ("@@@a@", "@a", False),
        ("@a@@", FormatError, True),  # unterminated: the '@@' is an '@' inside the run
        ("@a@@@b@", FormatError, True),  # 'b' follows a closed run
        ("@a\nb@", "a\nb", True),  # a run across a line end is left to the scan
        ("@a@\nB", "a\nཀ", False),
        ("@a@B", "aཀ", False),
        ("@@@@C@@@@", "@ཁ@", False),
    ],
)
def test_kernel_and_scan_on_hand_made_runs(enc, expected, kernel_declines):
    """`expected` is what strict `scan_decode` returns, or the error it raises."""
    if isinstance(expected, str):
        assert scan_decode(enc, CB, "strict").text == expected
    else:
        with pytest.raises(expected):
            scan_decode(enc, CB, "strict")
    assert _kernel_text(enc, CB) == (None if kernel_declines else expected)


def test_verify_roundtrip_lines_with_newlines_and_a_newline_code(default_codebook):
    lines = ["a\nb", "\n", "", "ཀ\n@", "\r\n\r"] * 3000
    newline_cb = build_basic([0x0F40, 0x0A, 0x0D])  # '\n' -> "C", '\r' -> "D"
    for cb in (default_codebook, newline_cb):
        expected = [from_latin(to_latin(line, cb), cb) == line for line in lines]
        assert all(expected)
        report = verify_roundtrip(lines, cb)
        assert (report.total, report.failures, report.first_failure_offset) == (len(lines), 0, None)


# Characters the encoder of `_corrupting` spoils, whether it gets one line or a
# whole batch: the real encoder passes each through, and its output gets wrong
# text, an encoded line end or an unknown code in its place.
_SPOILED = {"\x01": "C", "\x02": "\n", "\x03": "Zz"}


def _corrupting(real_translator):
    def translator(cb):
        real = real_translator(cb)

        def encode(text):
            enc = real(text)
            for ch, bad in _SPOILED.items():
                enc = enc.replace(ch, bad)
            return enc

        return encode

    return translator


def test_verify_roundtrip_names_failing_lines_in_batches(default_codebook, monkeypatch):
    monkeypatch.setattr(translit, "translator", _corrupting(translit.translator))
    # Wrong text and a decoded line end in one batch; an unknown code in a later one.
    lines = ["ཀ"] * 80_000
    lines[40_000], lines[40_005], lines[70_001] = "\x01", "\x02", "\x03"
    report = verify_roundtrip(lines, default_codebook)
    assert (report.total, report.failures, report.first_failure_offset) == (80_000, 3, 40_000)


@pytest.mark.parametrize("newline_cb", [False, True], ids=["whole", "newline-code"])
def test_verify_roundtrip_runs_the_kernel_once_a_batch(newline_cb, default_codebook, monkeypatch):
    cb = NEWLINE_CB if newline_cb else default_codebook
    calls = []
    real = kernel.kernel_lines
    monkeypatch.setattr(kernel, "kernel_lines", lambda enc, cb: calls.append(len(enc)) or real(enc, cb))
    monkeypatch.setattr(translit, "translator", _corrupting(translit.translator))
    lines = ["ཀ"] * 80_000
    lines[40_000] = "\x01"  # fails the block check of its batch
    report = verify_roundtrip(lines, cb)
    assert (report.total, report.failures, report.first_failure_offset) == (80_000, 1, 40_000)
    # Every line is short, so only each batch's one joined pass reaches the kernel.
    assert len(calls) == len(list(translit._batches(lines)))


# Line ends, '@' runs, letters, codebook characters, astral characters, lone
# surrogates and the characters `_corrupting` spoils.
_VERIFY_PIECES = ["\r", "\n", "@", "@@", "aZ", "B", "ཀ", "ཁ", "é", "😀", "\U0001d538", "\ud800", "\udfff",
                  *_SPOILED]
_VERIFY_CBS = {
    "default": None,
    "newline": NEWLINE_CB,  # maps '\n' and '\r': verified line by line
    "lf": build_basic([0x0F40, 0x0A]),  # maps '\n' only: verified line by line
    "cr": build_basic([0x0F40, 0x0D]),  # maps '\r' only: line ends still encode to themselves
}


@pytest.mark.parametrize("name", list(_VERIFY_CBS))
@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(st.lists(st.sampled_from(_VERIFY_PIECES), max_size=8).map("".join), max_size=30),
    block=st.integers(1, 40),
)
def test_verify_roundtrip_matches_a_per_line_oracle(name, lines, block, default_codebook):
    cb = _VERIFY_CBS[name] or default_codebook
    translator = _corrupting(translit.translator)
    encode = translator(cb)

    def roundtrips(line):
        try:
            return from_latin(encode(line), cb) == line
        except TranslitError:
            return False

    failing = [offset for offset, line in enumerate(lines) if not roundtrips(line)]
    # Small batches, so that one batch holds both failing and passing lines.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(translit, "translator", translator)
        mp.setattr(translit, "BLOCK_SIZE", block)
        report = verify_roundtrip(lines, cb)
    expected = (len(lines), len(failing), failing[0] if failing else None)
    assert (report.total, report.failures, report.first_failure_offset) == expected


# --- the kernel's working arrays, kept from call to call ----------------------


def _fresh_kernel_text(enc: str, cb: Codebook) -> str | None:
    """`_kernel_text` in a new thread, whose working arrays are new."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(_kernel_text, enc, cb).result()


def _long(cb: Codebook, runs: bool, repeat: int) -> str:
    codes = "".join(sorted(cb.code_to_char))
    return ((codes + "@x@@y@ 😀\n") if runs else codes) * repeat


def test_kernel_calls_of_any_size_order_match_a_fresh_call(default_codebook):
    huge = _long(LONG_CB, False, kernel._SCRATCH_MAX // 20)  # longer than the kept arrays go
    assert len(huge) > kernel._SCRATCH_MAX
    assert _kernel_text(huge, LONG_CB) is not None
    calls = [
        (default_codebook, _long(default_codebook, True, 3000)),
        (default_codebook, "BaB"),
        (LONG_CB, _long(LONG_CB, False, 40)),
        (default_codebook, _long(default_codebook, False, 2000)),
        (SPARSE_CB, "@a@" + _long(SPARSE_CB, True, 5)),
        (LONG_CB, "Bab@"),  # unterminated: declined
        (LONG_CB, huge),
        (default_codebook, _long(default_codebook, True, 20)),
        (LONG_CB, "Bz\nQxyz"),
    ]
    for cb, enc in calls * 2:
        assert _kernel_text(enc, cb) == _fresh_kernel_text(enc, cb)
    assert max(buf.size for buf in kernel._per_thread.scratch.arrays.values()) <= kernel._SCRATCH_MAX


def test_kernel_decodes_from_several_threads_at_once(default_codebook):
    inputs = [
        (default_codebook, _long(default_codebook, True, 400)),
        (LONG_CB, _long(LONG_CB, False, 700)),
        (default_codebook, _long(default_codebook, False, 50)),
        (SPARSE_CB, _long(SPARSE_CB, True, 300)),
    ]
    # The SPARSE_CB input holds codes of five or more letters, which the kernel declines.
    expected = [None if _has_long_segment(enc) else scan_decode(enc, cb).text for cb, enc in inputs]
    assert expected.count(None) == 1
    threads = 4  # more than the cores of a small host, so that they interleave
    start = threading.Barrier(threads, timeout=30)

    def work(shift):
        start.wait()
        order = [(i + shift) % len(inputs) for i in range(len(inputs))] * 10
        return [(i, _kernel_text(inputs[i][1], inputs[i][0])) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(threads) as pool:
            runs = [pool.submit(work, shift) for shift in range(threads)]
            results = [run.result(timeout=60) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        assert len(result) == 10 * len(inputs)
        assert all(text == expected[i] for i, text in result)
