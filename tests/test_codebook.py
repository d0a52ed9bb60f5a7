import io
import time

import pytest
from hypothesis import given, settings, strategies as st

from translitkit.bpe import BpeModel
from translitkit.cli import main
from translitkit.codebook import (
    RESERVED,
    Codebook,
    CodebookEntry,
    build_basic,
    build_hybrid,
    build_tokenizer_optimized,
    load,
    load_transform,
    save,
)
from translitkit.codespace import DEFAULT_PROFILE, CodeSpaceProfile, enumerate_codes
from translitkit.errors import CapacityError, ConfigError, FormatError, IntegrityError, TranslitError
from translitkit.translit import from_latin, to_latin

from reference import ref_build_tokenizer_optimized

UNRESTRICTED_2 = CodeSpaceProfile(max_len=2, excluded_single_letters=frozenset(),
                                  two_char_first_letters=tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ"))


def letter_model(include_doubles: bool) -> BpeModel:
    """All single letters as tokens; optionally every two-letter code Aa..Zz."""
    vocab = [chr(c) for c in range(ord("A"), ord("Z") + 1)]
    vocab += [chr(c) for c in range(ord("a"), ord("z") + 1)]
    merges = []
    if include_doubles:
        for first in "ABCDEFGHIJKLMNOPQRSTUVWXYZ":
            for second in "abcdefghijklmnopqrstuvwxyz":
                vocab.append(first + second)
                merges.append((first, second))
    return BpeModel(vocab, merges)


def test_build_basic_162(chars_162):
    cb = build_basic(chars_162)
    assert len(cb) == 162
    lengths = [len(e.code) for e in cb.entries]
    assert lengths.count(1) == 21
    assert lengths.count(2) == 141
    assert cb.entries[-1].code == "Fk"
    assert cb.strategy == "basic"


def test_build_basic_singleton():
    cb = build_basic([0x0F40])
    assert cb.char_to_code == {0x0F40: "B"}


def test_build_basic_matches_zip_oracle():
    # oracle: sort by count desc, zip against canonical enumeration
    counts = {0x0F42: 10, 0x0F41: 5, 0x0F40: 1}
    chars = sorted(counts, key=lambda cp: -counts[cp])
    cb = build_basic(chars)
    expected = dict(zip(chars, enumerate_codes(DEFAULT_PROFILE, 3)))
    assert cb.char_to_code == expected == {0x0F42: "B", 0x0F41: "C", 0x0F40: "D"}
    lengths = [len(cb.char_to_code[cp]) for cp in chars]
    assert lengths == sorted(lengths)


def test_build_basic_monotone_lengths(chars_162):
    cb = build_basic(chars_162)
    lengths = [len(e.code) for e in cb.entries]
    assert lengths == sorted(lengths)


def test_build_basic_capacity_error():
    chars = list(range(0x0F00, 0x0F00 + 178))
    with pytest.raises(CapacityError):
        build_basic(chars)



@pytest.mark.parametrize(
    "build", [build_basic, lambda chars: build_tokenizer_optimized(chars, model=letter_model(True))]
)
def test_every_build_names_the_capacity_alike(build):
    chars = list(range(0x0F00, 0x0F00 + 178))
    with pytest.raises(CapacityError) as info:
        build(chars)
    assert str(info.value) == "requested 178 codes but the profile holds at most 177 (max_len=2)"

def test_build_rejects_duplicates():
    with pytest.raises(IntegrityError, match=r"^row 2: character U\+0F40 already mapped on row 1$"):
        build_basic([0x0F40, 0x0F40])


def test_a_long_max_len_builds_as_fast_as_a_short_one(tmp_path, capsys):
    # The capacity check stops adding code lengths once they hold the characters.
    freq = tmp_path / "freq.tsv"
    freq.write_text("#scripts=Tibetan\n" + "".join(
        f"{cp}\tU+{cp:04X}\tTibetan\t{9 - i}\n" for i, cp in enumerate((0x0F40, 0x0F41, 0x0F42))
    ), encoding="utf-8")
    out = {}
    for max_len in (2, 1_000_000):
        (tmp_path / "profile.cfg").write_text(f"max_len = {max_len}\n", encoding="utf-8")
        start = time.perf_counter()
        assert main(["build-codebook", "--freq", str(freq), "--strategy", "basic",
                     "--profile", str(tmp_path / "profile.cfg")]) == 0
        assert time.perf_counter() - start < 1.0
        out[max_len] = capsys.readouterr().out
    assert out[1_000_000] == out[2]
    assert out[2].endswith("0F40\tB\t1\t0\n0F41\tC\t2\t0\n0F42\tD\t3\t0\n")
    huge = CodeSpaceProfile(max_len=1_000_000)
    start = time.perf_counter()
    assert build_tokenizer_optimized(range(0x0F40, 0x0F43), huge, letter_model(False)) == \
        build_tokenizer_optimized(range(0x0F40, 0x0F43), DEFAULT_PROFILE, letter_model(False))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "entry, kind, message",
    [
        (CodebookEntry(0x0F41, "C", 1, 0), IntegrityError, "row 2: rank 1 already used on row 1"),
        (CodebookEntry(0x0F41, "C", 0, 0), FormatError, "row 2: rank '0' is not a decimal of 1 or more"),
        (CodebookEntry(0x0F41, "C", 2, -1), FormatError, "row 2: token count '-1' is not a decimal of 0 or more"),
        (CodebookEntry(0xD800, "C", 2, 0), FormatError, "row 2: code point U+D800 is a surrogate"),
        (CodebookEntry(0x110000, "C", 2, 0), FormatError, "row 2: code point '110000' out of range"),
        (CodebookEntry(-65, "C", 2, 0), FormatError, "row 2: code point '-41' out of range"),
        (CodebookEntry(0x0F41, "c", 2, 0), FormatError, "row 2: invalid code 'c'"),
        (CodebookEntry(0x0F40, "C", 2, 0), IntegrityError, "row 2: character U+0F40 already mapped on row 1"),
        (CodebookEntry(0x0F41, "B", 2, 0), IntegrityError, "row 2: code 'B' already mapped on row 1"),
        (CodebookEntry(ord("@"), "C", 2, 0), IntegrityError, "row 2: U+0040 ('@') is reserved by the wire grammar"),
    ],
)
def test_the_constructor_refuses_each_row_that_load_refuses(entry, kind, message):
    with pytest.raises(kind) as info:
        Codebook([CodebookEntry(0x0F40, "B", 1, 0), entry], "basic")
    assert str(info.value) == message


_CODE_POINTS = st.sampled_from(
    [0x0F40, 0x0F41, 0x0F42, 0, 0x10FFFF, 0xD800, 0xDFFF, 0x110000, -1]
) | st.sampled_from(sorted(RESERVED)) | st.integers(-2, 0x110001)
_CODES = st.sampled_from(["B", "C", "Aa", "Fk", "Zzzzz", "", "b", "BB", "B1", "B\n", "É"]) | st.text(max_size=3)
_ENTRIES = st.builds(CodebookEntry, _CODE_POINTS, _CODES, st.integers(-1, 4), st.integers(-2, 3))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENTRIES, max_size=5), st.sampled_from(["basic", "tokenizer_opt", "hybrid"]),
       st.sampled_from(["", "abcd1234abcd1234"]))
def test_the_constructor_refuses_or_save_then_load_gives_it_back(entries, strategy, digest):
    # Duplicate characters, codes and ranks, rank 0, negative token counts,
    # surrogates, code points past U+10FFFF, reserved ones and invalid codes.
    try:
        cb = Codebook(entries, strategy, digest)
    except TranslitError:
        return
    buf = io.StringIO()
    save(cb, buf)
    loaded = load(io.BytesIO(buf.getvalue().encode("utf-8")))
    assert loaded == cb
    assert (loaded.char_to_code, loaded.code_to_char) == (cb.char_to_code, cb.code_to_char)


@settings(max_examples=200, deadline=None)
@given(st.text() | st.text("0123456789abcdefABF x=\t\r\n", max_size=20))
def test_a_digest_the_constructor_takes_loads_back_unchanged(digest):
    try:
        cb = Codebook([CodebookEntry(0x0F40, "B", 1, 0)], "basic", digest)
    except TranslitError:
        return
    buf = io.StringIO()
    save(cb, buf)
    assert load(io.BytesIO(buf.getvalue().encode("utf-8"))).source_freq_digest == digest


@pytest.mark.parametrize("digest", ["0F4G", "ABCD", "a\rb"])
def test_load_names_line_1_for_a_digest_that_is_not_lowercase_hex(digest):
    text = f"#strategy=basic freq_digest={digest}\n0F40\tB\t1\t0\n"
    with pytest.raises(FormatError) as info:
        load(io.BytesIO(text.encode("utf-8")))
    assert str(info.value) == f"<codebook> line 1: freq digest {digest!r} is not lowercase hex"


def test_reserved_codepoints_rejected():
    with pytest.raises(IntegrityError):
        build_basic([ord("A")])
    with pytest.raises(IntegrityError):
        build_basic([ord("@")])
    with pytest.raises(IntegrityError):
        build_basic([ord("q")])


def test_bijectivity(chars_162):
    cb = build_basic(chars_162)
    assert len(cb.char_to_code) == len(cb.code_to_char) == 162
    for cp, code in cb.char_to_code.items():
        assert cb.code_to_char[code] == cp


def test_tokenizer_optimized_all_single(chars_162):
    cb = build_tokenizer_optimized(chars_162, DEFAULT_PROFILE, letter_model(True))
    assert cb.single_token_count == 162
    assert all(e.token_count == 1 for e in cb.entries)
    assert cb.strategy == "tokenizer_opt"


def test_tokenizer_optimized_toy_three_chars():
    model = BpeModel(["B", "C", "A", "a", "Aa"], [("A", "a")])
    cb = build_tokenizer_optimized([0x0F40, 0x0F41, 0x0F42], DEFAULT_PROFILE, model)
    assert cb.single_token_count == 3


def test_tokenizer_optimized_exhaustion_matches_bruteforce():
    # oracle: tokenize every candidate code and order by (tokens, canonical idx)
    model = letter_model(False)
    chars = list(range(0x0F00, 0x0F00 + 30))
    cb = build_tokenizer_optimized(chars, UNRESTRICTED_2, model)
    assert cb.single_token_count == 26
    counts = {e.code: len(model.tokenize(e.code)) for e in cb.entries}
    candidates = list(UNRESTRICTED_2.iter_codes())
    scored = sorted(
        ((len(model.tokenize(c)), i, c) for i, c in enumerate(candidates)),
    )
    expected = [c for _, _, c in scored[:30]]
    assert [e.code for e in cb.entries] == expected
    assert all(counts[e.code] == e.token_count for e in cb.entries)


def test_tokenizer_optimized_total_tokens_never_worse(chars_162):
    model = letter_model(False)
    basic = build_basic(chars_162)
    opt = build_tokenizer_optimized(chars_162, DEFAULT_PROFILE, model)
    total_basic = sum(len(model.tokenize(e.code)) for e in basic.entries)
    total_opt = sum(e.token_count for e in opt.entries)
    assert total_opt <= total_basic


def test_tokenizer_optimized_per_char_not_worse_when_singles_suffice(chars_162):
    model = letter_model(True)
    basic = build_basic(chars_162)
    opt = build_tokenizer_optimized(chars_162, DEFAULT_PROFILE, model)
    for b, o in zip(basic.entries, opt.entries):
        assert len(model.tokenize(o.code)) <= len(model.tokenize(b.code))


MAX3_PROFILE = CodeSpaceProfile(max_len=3, excluded_single_letters=frozenset("AEQ"),
                                two_char_first_letters=tuple("BCX"))
_BYTE_SYMBOLS = ["<0x41>", "<0x42>", "<0x58>", "<0x61>", "<0x62>", "<0x78>"]  # A B X a b x


@st.composite
def _models(draw):
    """A small BpeModel over a few letters; with byte fallback, merges also join `<0xXX>` tokens."""
    fallback = draw(st.booleans())
    letters = draw(st.lists(st.sampled_from("ABCXYabcxy"), min_size=1, unique=True))
    vocab = list(letters)
    merges = []
    symbols = letters + (_BYTE_SYMBOLS if fallback else [])
    for i, j in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=40)):
        pool = symbols + vocab[len(letters):]
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if a + b not in vocab:
            merges.append((a, b))
            vocab.append(a + b)
    return BpeModel(vocab, merges, fallback)


@settings(max_examples=100, deadline=None)
@given(
    model=_models(),
    profile=st.sampled_from([DEFAULT_PROFILE, UNRESTRICTED_2, MAX3_PROFILE]),
    past_short_codes=st.booleans(),
    offset=st.integers(min_value=-3, max_value=3),
)
def test_tokenizer_optimized_matches_the_full_scan(model, profile, past_short_codes, offset):
    # The character count sits around the number of single-token codes, so both
    # the all-single path and the exhaustion path run, or around the number of
    # codes up to length 2, so the exhaustion path reaches codes of 3 tokens.
    if past_short_codes:
        anchor = profile.slots_at(1) + profile.slots_at(2)
    else:
        anchor = sum(len(model.tokenize(code)) == 1 for code in profile.iter_codes())
    total = sum(map(profile.slots_at, range(1, profile.max_len + 1)))
    chars = list(range(0x0F00, 0x0F00 + min(max(0, anchor + offset), total)))
    expected = ref_build_tokenizer_optimized(chars, profile, model)
    assert build_tokenizer_optimized(chars, profile, model) == expected


@pytest.mark.parametrize("byte_fallback", [False, True])
def test_tokenizer_optimized_reads_byte_tokens_back(byte_fallback):
    # "A" is not in the vocab. With byte fallback it is the token <0x41>, and
    # "Ab" is one token through the vocab entry "<0x41>b"; without, it is two.
    model = BpeModel(["b", "<0x41>b"], [("<0x41>", "b")], byte_fallback)
    profile = CodeSpaceProfile(max_len=2, excluded_single_letters=frozenset("DEFGHIJKLMNOPQRSTUVWXYZ"),
                               two_char_first_letters=tuple("ABC"))
    chars = list(range(0x0F00, 0x0F06))
    cb = build_tokenizer_optimized(chars, profile, model)
    assert cb == ref_build_tokenizer_optimized(chars, profile, model)
    if byte_fallback:
        assert [(e.code, e.token_count) for e in cb.entries] == [
            ("A", 1), ("B", 1), ("C", 1), ("Ab", 1), ("Aa", 2), ("Ac", 2)
        ]
    else:
        assert [(e.code, e.token_count) for e in cb.entries] == [
            ("A", 1), ("B", 1), ("C", 1), ("Aa", 2), ("Ab", 2), ("Ac", 2)
        ]


def test_tokenizer_optimized_cost_does_not_grow_with_the_code_space(chars_162):
    # About 321M codes; the 702 single-token codes of the model cover the characters.
    profile = CodeSpaceProfile(max_len=6, excluded_single_letters=frozenset(),
                               two_char_first_letters=tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
    assert sum(map(profile.slots_at, range(1, 7))) > 321_000_000
    start = time.perf_counter()
    cb = build_tokenizer_optimized(chars_162, profile, letter_model(True))
    assert time.perf_counter() - start < 1.0
    assert [e.code for e in cb.entries] == enumerate_codes(profile, 162)
    assert cb.single_token_count == 162


def test_tokenizer_optimized_requires_model(chars_162):
    with pytest.raises(ConfigError):
        build_tokenizer_optimized(chars_162, DEFAULT_PROFILE, None)


def test_hybrid_tag(chars_162):
    cb = build_hybrid(chars_162, DEFAULT_PROFILE, letter_model(True))
    assert cb.strategy == "hybrid"
    assert cb.single_token_count == 162


def test_save_load_roundtrip(chars_162):
    cb = build_basic(chars_162, source_digest="abcd1234abcd1234")
    buf = io.StringIO()
    save(cb, buf)
    loaded = load(io.BytesIO(buf.getvalue().encode()))
    assert loaded == cb
    assert loaded.char_to_code == cb.char_to_code
    assert loaded.source_freq_digest == "abcd1234abcd1234"


def test_a_codebook_with_cached_tables_equals_a_fresh_load(chars_162):
    cb = build_basic(chars_162, source_digest="abcd1234abcd1234")
    buf = io.StringIO()
    save(cb, buf)
    text = "".join(map(chr, chars_162)) * 2  # long enough for decode to use the kernel
    assert from_latin(to_latin(text, cb), cb) == text
    assert cb.encode_table is not None and cb.kernel_table is not None
    loaded = load(io.BytesIO(buf.getvalue().encode()))
    assert cb == loaded and loaded == cb
    assert cb != Codebook(cb.entries, cb.strategy, "")


def test_load_handwritten_two_rows():
    text = "#strategy=basic freq_digest=\n0F40\tB\t1\t0\n0F41\tAa\t2\t0\n"
    cb = load(io.BytesIO(text.encode()))
    assert cb.char_to_code == {0x0F40: "B", 0x0F41: "Aa"}
    assert cb.code_to_char == {"B": 0x0F40, "Aa": 0x0F41}


def test_load_duplicate_code_names_line():
    text = "#strategy=basic freq_digest=\n0F40\tB\t1\t0\n0F41\tB\t2\t0\n"
    with pytest.raises(IntegrityError, match="line 3"):
        load(io.BytesIO(text.encode()))


def test_load_duplicate_char_names_line():
    text = "#strategy=basic freq_digest=\n0F40\tB\t1\t0\n0F40\tC\t2\t0\n"
    with pytest.raises(IntegrityError, match="line 3"):
        load(io.BytesIO(text.encode()))


def test_load_invalid_code_pattern():
    text = "#strategy=basic freq_digest=\n0F40\tbb\t1\t0\n"
    with pytest.raises(FormatError):
        load(io.BytesIO(text.encode()))


@pytest.mark.parametrize(
    "cell, message",
    [
        ("110000", r"^line 3: code point '110000' out of range$"),
        ("-41", r"^line 3: code point '-41' out of range$"),
        ("D800", r"^line 3: code point U\+D800 is a surrogate$"),
        ("DFFF", r"^line 3: code point U\+DFFF is a surrogate$"),
    ],
)
def test_load_rejects_impossible_code_points(cell, message):
    text = f"#strategy=basic freq_digest=\n0F40\tB\t1\t0\n{cell}\tC\t2\t0\n"
    with pytest.raises(FormatError, match=message.replace("^", "^<codebook> ")):
        load(io.BytesIO(text.encode()))


def test_load_accepts_the_last_code_point():
    cb = load(io.BytesIO("#strategy=basic freq_digest=\n10FFFF\tB\t1\t0\nE000\tC\t2\t0\n".encode()))
    assert cb.code_to_char == {"B": 0x10FFFF, "C": 0xE000}


def test_load_missing_header():
    with pytest.raises(FormatError, match="line 1"):
        load(io.BytesIO("0F40\tB\t1\t0\n".encode()))


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigError):
        Codebook([CodebookEntry(0x0F40, "B", 1, 0)], "fancy")


def test_load_transform(tmp_path):
    path = tmp_path / "transform.tsv"

    def load_text(text: str) -> dict[int, str]:
        path.write_text(text, encoding="utf-8")
        return load_transform(str(path))

    table = load_text("4F60\tni3\n597D\thao3\n")
    assert table == {0x4F60: "ni3", 0x597D: "hao3"}
    with pytest.raises(IntegrityError):
        load_text("4F60\tni3\n4F60\tni\n")
    with pytest.raises(FormatError):
        load_text("4F60\n")
    with pytest.raises(FormatError) as info:
        load_text("4F60\tni3\n# a comment\n4G60\tx\n")
    assert str(info.value) == f"{path} line 3: invalid literal for int() with base 16: '4G60'"
