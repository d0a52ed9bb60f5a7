import random
import re
import string

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from translitkit.bpe import (
    BpeModel,
    load_model,
    merge_vocab,
    save_model,
    token_length_histogram,
    train,
)
from translitkit.errors import ConfigError, FormatError

from reference import naive_bpe_word, naive_tokenize, ref_bpe_train


def test_single_merge():
    model = BpeModel(["A", "a", "Aa"], [("A", "a")])
    assert model.tokenize("Aa") == ["Aa"]


def test_empty_string():
    model = BpeModel(["A"], [])
    assert model.tokenize("") == []


def test_whitespace_runs_are_literal_tokens():
    model = BpeModel(["a", "b", "ab"], [("a", "b")])
    assert model.tokenize("ab  ab") == ["ab", "  ", "ab"]


def test_merge_order_lowest_rank_first():
    # rule 0 only becomes applicable after rule 1 fires
    model = BpeModel(["a", "b", "c", "bc", "abc"], [("a", "bc"), ("b", "c")])
    assert model.tokenize("abc") == ["abc"]


def test_byte_fallback():
    model = BpeModel(["a"], [], byte_fallback=True)
    assert model.tokenize("aé") == ["a", "<0xC3>", "<0xA9>"]
    no_fallback = BpeModel(["a"], [])
    assert no_fallback.tokenize("aé") == ["a", "é"]


def test_vocab_validation():
    with pytest.raises(FormatError, match=re.escape("vocab[1]: token 'a' already on vocab[0]")):
        BpeModel(["a", "a"], [])
    with pytest.raises(FormatError, match=re.escape("merges[0]: merge result 'ab' missing from vocab")):
        BpeModel(["a", "b"], [("a", "b")])


def _random_model(rng: random.Random) -> BpeModel:
    alphabet = list("abcd")
    vocab = list(alphabet)
    merges = []
    for _ in range(rng.randint(0, 12)):
        a = rng.choice(vocab)
        b = rng.choice(vocab)
        if a + b not in vocab:
            merges.append((a, b))
            vocab.append(a + b)
    return BpeModel(vocab, merges)


def test_tokenize_matches_naive_reference():
    rng = random.Random(4242)
    for _ in range(200):
        model = _random_model(rng)
        text = "".join(rng.choice("abcd ") for _ in range(rng.randint(0, 30)))
        assert model.tokenize(text) == naive_tokenize(text, model.merges), (
            model.merges,
            text,
        )


_FALLBACK_BYTES = ["<0xC3>", "<0xA9>"]  # the UTF-8 bytes of "é", which no vocab below holds


@st.composite
def _models_in_any_order(draw, alphabet: str, max_merges: int) -> BpeModel:
    """A model whose merges come in a random order, so an operand may be the result of a later merge."""
    pool = list(alphabet) + _FALLBACK_BYTES
    pairs: list[tuple[str, str]] = []
    for _ in range(draw(st.integers(0, max_merges))):
        pair = (draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
        if pair not in pairs:
            pairs.append(pair)
            pool.append(pair[0] + pair[1])
    merges = draw(st.permutations(pairs))
    vocab = list(dict.fromkeys(pool))
    return BpeModel(vocab, merges, byte_fallback=draw(st.booleans()))


def _naive_with_fallback(text: str, model: BpeModel) -> list[str]:
    """`naive_tokenize`, with each character outside the vocab split into bytes first if the model says so."""
    if not model.byte_fallback:
        return naive_tokenize(text, model.merges)
    out: list[str] = []
    for i, part in enumerate(re.split(r"(\s+)", text)):
        if i & 1:
            out.append(part)
        elif part:
            syms = [t for ch in part for t in (_FALLBACK_BYTES if ch == "é" else [ch])]
            out.extend(naive_bpe_word(syms, model.merges))
    return out


@settings(max_examples=300, deadline=None)
@given(model=_models_in_any_order("abc", 12), text=st.text(st.sampled_from("abcé "), max_size=30))
@example(model=BpeModel(["a", "b", "ab", "aba"], [("ab", "a"), ("a", "b")]), text="abab")
def test_tokenize_matches_naive_for_merges_in_any_order(model, text):
    # With merges (ab, a), (a, b), "abab" is [ab, ab]: rank 1 makes both ab's
    # before the rank 0 pair (ab, a) that the first of them forms is looked at.
    assert model.tokenize(text) == _naive_with_fallback(text, model)


@settings(max_examples=150, deadline=None)
@given(model=_models_in_any_order("ab", 10), word=st.text(st.sampled_from("ab"), min_size=20, max_size=120))
@example(model=BpeModel(["a", "b", "aa", "aaaa"], [("aa", "aa"), ("a", "a")]), word="a" * 41)
def test_tokenize_matches_naive_on_long_words_of_repeated_pairs(model, word):
    assert model.tokenize(word) == naive_tokenize(word, model.merges)


def test_a_merge_listed_twice_is_rejected(tmp_path):
    # a repeated merge has two ranks, and `naive_tokenize` applies the first
    with pytest.raises(FormatError, match=re.escape("merges[2]: merge 'a b' already on merges[0]")):
        BpeModel(["a", "b", "c", "ab", "bc"], [("a", "b"), ("b", "c"), ("a", "b")])
    d = tmp_path / "m"
    d.mkdir()
    (d / "vocab.txt").write_text("a\nb\nc\nab\nbc\n", encoding="utf-8")
    (d / "merges.txt").write_text("a b\n\nb c\na b\n", encoding="utf-8")
    merges = str(d / "merges.txt")
    with pytest.raises(FormatError, match=f"^{re.escape(merges)} line 4: merge 'a b' already on line 1$"):
        load_model(str(d))


def test_train_learns_ab_first():
    # oracle by hand: pair (a,b) occurs 4 times, (b,a) twice
    model = train(["abab abab"], target_vocab=5)
    assert model.merges[0] == ("a", "b")
    assert len(model.vocab) == 5
    assert model.tokenize("abab") == ["abab"]


def test_train_degenerate_single_char():
    model = train(["aaaa"], target_vocab=2)
    assert model.merges == [("a", "a")]
    model = train(["a"], target_vocab=3)  # no pairs: clean stop below target
    assert model.merges == []
    assert model.vocab == ["a"]


def test_train_empty_corpus():
    with pytest.raises(ConfigError):
        train([], target_vocab=10)
    with pytest.raises(ConfigError):
        train([""], target_vocab=10)


def test_train_alphabet_exceeds_target():
    with pytest.raises(ConfigError):
        train(["abcdef"], target_vocab=3)


def test_train_deterministic():
    corpus = ["the cat sat", "the bat", "a cat"]
    assert train(corpus, 20) == train(corpus, 20)


def test_train_tie_break_lexicographic():
    # "ab" and "cd" both occur twice; ('a','b') < ('c','d')
    model = train(["ab cd ab cd"], target_vocab=7)
    assert model.merges[0] == ("a", "b")


# Words that tie on counts, overlap ("aaaa"), repeat, or are a single character,
# joined by runs of different whitespace.
_WORDS = st.one_of(
    st.sampled_from(["a", "b", "aa", "aaaa", "aaa", "ab", "abab", "ba", "cd", "abc"]),
    st.text(st.sampled_from("abc"), min_size=1, max_size=7),
)
_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t", "\u3000"])
_LINES = st.lists(st.tuples(_WORDS, _SEPARATORS), max_size=6).map(
    lambda parts: "".join(word + sep for word, sep in parts)
) | st.sampled_from(["", " ", "a"])


@settings(max_examples=400, deadline=None)
@given(corpus=st.lists(_LINES, max_size=6), target=st.integers(min_value=0, max_value=40))
@example(corpus=["ab cd ab cd"], target=7)  # a count tie
@example(corpus=["aaaa aaaa aaa"], target=6)  # overlapping pairs
@example(corpus=["ab ab ab a b"], target=40)  # pairs run out long before the target
@example(corpus=[], target=5)  # empty corpus
@example(corpus=["abc"], target=2)  # alphabet larger than the target
def test_train_matches_the_recounting_oracle(corpus, target):
    try:
        expected = ref_bpe_train(corpus, target)
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
            train(corpus, target)
        return
    assert train(corpus, target) == expected


def test_tokenize_own_corpus_stays_in_vocab():
    corpus = ["abab cd abab", "cd cd ab"]
    model = train(corpus, target_vocab=12)
    vocab = set(model.vocab)
    for line in corpus:
        for token in model.tokenize(line):
            assert token in vocab


def test_merge_vocab_disjoint():
    a = BpeModel(list("abcde") + ["ab"], [("a", "b")])
    b = BpeModel(list("xyz") + ["xy"], [("x", "y")])
    merged = merge_vocab(a, b)
    assert len(merged.vocab) == 6 + 4
    assert merged.vocab[: len(a.vocab)] == a.vocab
    assert merged.merges == [("a", "b"), ("x", "y")]


def test_merge_vocab_identical_is_noop():
    a = BpeModel(list("ab") + ["ab"], [("a", "b")])
    assert merge_vocab(a, a) == a


def test_merge_vocab_paper_arithmetic():
    base = BpeModel([f"b{i}" if i else "b" for i in range(32_000)], [])
    shared = base.vocab[:2_262]
    extra = BpeModel(shared + [f"x{i}" for i in range(4_000 - 2_262)], [])
    merged = merge_vocab(base, extra)
    assert len(merged.vocab) == 33_738


@given(
    overlap=st.integers(min_value=0, max_value=30),
    extra_a=st.integers(min_value=0, max_value=30),
    extra_b=st.integers(min_value=0, max_value=30),
)
def test_merge_vocab_size_formula(overlap, extra_a, extra_b):
    shared = [f"s{i}" for i in range(overlap)]
    a = BpeModel(shared + [f"a{i}" for i in range(extra_a)], [])
    b = BpeModel(shared + [f"b{i}" for i in range(extra_b)], [])
    merged = merge_vocab(a, b)
    assert len(merged.vocab) == len(a.vocab) + len(b.vocab) - overlap
    assert merge_vocab(merged, merged) == merged


def test_histogram_all_single():
    model = BpeModel(list(string.ascii_uppercase), [])
    hist = token_length_histogram(list("ABC"), model)
    assert hist == {1: 3, 2: 0, 3: 0, 4: 0}


def test_histogram_matches_per_string_oracle():
    rng = random.Random(7)
    model = _random_model(rng)
    strings = ["".join(rng.choice("abcd") for _ in range(rng.randint(1, 8))) for _ in range(60)]
    hist = token_length_histogram(strings, model)
    expected = {1: 0, 2: 0, 3: 0, 4: 0}
    for s in strings:
        expected[min(len(model.tokenize(s)), 4)] += 1
    assert hist == expected
    assert sum(hist.values()) == len(strings)


def test_save_load_roundtrip(tmp_path):
    model = train(["abab abab", "xy xy"], target_vocab=10)
    save_model(model, str(tmp_path / "m"))
    loaded = load_model(str(tmp_path / "m"))
    assert loaded == model
    assert loaded.tokenize("abab xy") == model.tokenize("abab xy")


def test_a_model_with_a_warm_word_cache_equals_a_fresh_one(tmp_path):
    model = train(["abab abab", "xy xy"], target_vocab=10)
    save_model(model, str(tmp_path / "m"))
    model.tokenize("abab xy yx")
    fresh = load_model(str(tmp_path / "m"))
    assert model == fresh and fresh == model
    assert model != BpeModel(model.vocab, model.merges, not model.byte_fallback)


def test_save_load_preserves_whitespace_token(tmp_path):
    model = train(["a  b"], target_vocab=4)
    assert "  " in model.vocab
    save_model(model, str(tmp_path / "m"))
    assert "  " in load_model(str(tmp_path / "m")).vocab


def test_load_missing_dir(tmp_path):
    with pytest.raises(ConfigError):
        load_model(str(tmp_path / "nope"))


@pytest.mark.parametrize(
    "model, token",
    [
        (train(["ab \rcd", "ab cd"], target_vocab=12), " \r"),  # a whitespace run ending in "\r"
        (BpeModel(["a", "b\nc"], []), "b\nc"),
        (BpeModel(["a", ""], []), ""),
        (BpeModel(["a b", "c", "a bc"], [("a b", "c")]), "a b"),  # fine in vocab.txt, not in merges.txt
        (BpeModel(["a", "\ud800"], []), "\ud800"),  # a lone surrogate has no UTF-8 form
        # a merge symbol's surrogate is in its merge result too, so vocab.txt refuses it first
        (BpeModel(["a", "a\udc00"], [("a", "\udc00")]), "a\udc00"),
        (BpeModel(["\ufeffa", "b"], []), "\ufeffa"),  # the reader drops a file's leading BOM
        (BpeModel(["x", "\ufeffa", "b", "\ufeffab"], [("\ufeffa", "b")]), "\ufeffa"),
    ],
)
def test_save_refuses_tokens_the_reader_cannot_give_back(tmp_path, model, token):
    out = tmp_path / "m"
    with pytest.raises(FormatError, match=re.escape(f"cannot store {token!r}:")):
        save_model(model, str(out))
    assert not out.exists()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.text(st.sampled_from("ab \t\r\n\x0b\x85\u2028\ufeff"), max_size=8),
                min_size=1, max_size=4))
def test_every_saved_model_loads_back_equal(tmp_path_factory, corpus):
    try:
        model = train(corpus, target_vocab=16)
    except ConfigError:  # empty corpus or too large an alphabet
        return
    out = tmp_path_factory.mktemp("m")
    try:
        save_model(model, str(out))
    except FormatError:
        return
    assert load_model(str(out)) == model


# Pieces of storable tokens: letters, whitespace other than ' ' and '\n', a BOM,
# byte tokens and characters of two to four UTF-8 bytes. A '\r' may not end a token.
_TOKEN_PIECES = [
    "a", "b", "\t", "\x0b", "\x85", "\u2028", "\u3000", "\r", "\ufeff",
    "<0x00>", "<0xC3>", "<0xFF>", "é", "ཀ", "😀", "\U0001d538", "\U0010fffd",
]
_SYMBOL = st.lists(st.sampled_from(_TOKEN_PIECES), min_size=1, max_size=3).map("".join).filter(
    lambda token: not token.endswith("\r")
)
_SPACED = st.text(" \t", min_size=1, max_size=3)  # a whitespace run; ' ' is storable in vocab.txt only


@st.composite
def _storable_models(draw) -> BpeModel:
    merges = draw(st.lists(st.tuples(_SYMBOL, _SYMBOL), max_size=6, unique=True))
    tokens = draw(st.lists(_SYMBOL | _SPACED, max_size=8)) + [s for a, b in merges for s in (a, b, a + b)]
    vocab = list(dict.fromkeys(draw(st.permutations(tokens))))
    # The reader drops a leading BOM, so neither file may start with one.
    assume(not vocab[:1] or not vocab[0].startswith("\ufeff"))
    assume(not merges or not merges[0][0].startswith("\ufeff"))
    return BpeModel(vocab, merges, draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(model=_storable_models())
def test_a_model_directory_round_trips(tmp_path_factory, model):
    saved = tmp_path_factory.mktemp("m")
    save_model(model, str(saved))
    files = {name: (saved / name).read_bytes() for name in ("vocab.txt", "merges.txt")}
    loaded = load_model(str(saved), model.byte_fallback)
    assert loaded == model
    again = tmp_path_factory.mktemp("m")
    save_model(loaded, str(again))
    assert {name: (again / name).read_bytes() for name in files} == files
    # What the reader allows besides: a leading BOM, CRLF line ends and blank lines.
    for edit in (
        lambda data: "\ufeff".encode() + data,
        lambda data: data.replace(b"\n", b"\r\n"),
        lambda data: b"\n" + data.replace(b"\n", b"\n\n") + b"\r\n",
    ):
        for name, data in files.items():
            (saved / name).write_bytes(edit(data))
        assert load_model(str(saved), model.byte_fallback) == model


def test_bpe_train_refuses_an_unreadable_model(tmp_path, capsys):
    from translitkit.cli import main

    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"ab \rcd\nab cd\n")
    out = tmp_path / "m"
    assert main(["bpe-train", str(corpus), "--vocab-size", "12", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError: vocab.txt cannot store ' \\r'")
    assert not out.exists()


def test_load_tolerates_crlf(tmp_path):
    d = tmp_path / "m"
    d.mkdir()
    (d / "vocab.txt").write_bytes(b"a\r\nb\r\nab\r\n")
    (d / "merges.txt").write_bytes(b"a b\r\n")
    model = load_model(str(d))
    assert model.vocab == ["a", "b", "ab"]
    assert model.merges == [("a", "b")]
