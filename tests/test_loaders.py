"""Every file the toolkit loads is read under one line contract (`textio`).

Only ``\\n`` ends a line, a CRLF's ``\\r`` is dropped, a lone ``\\r`` is text,
one leading BOM is dropped, and invalid UTF-8 is an InputError naming the path
and its absolute byte offset. These tests hold each loader to that contract,
fuzz every loader with arbitrary bytes, and guard that no other module decodes
text files itself or handles a BOM or a CRLF.
"""

import ast
import io
import json
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from translitkit import bpe, codebook, config, freqanalysis, langid
from translitkit.cli import main
from translitkit.errors import FormatError, InputError, TranslitError
from translitkit.pipeline import Pipeline, PipelineConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "translitkit"

CODEBOOK = "#strategy=basic freq_digest=\n0F40\tB\t1\t0\n0F41\tC\t2\t0\n"
TRANSFORM = "# hanzi to pinyin\n4F60\tni3\n597D\thao3\n"
FREQ = "#scripts=Tibetan\n3904\tU+0F40\tTibetan\t5\n3905\tU+0F41\tTibetan\t2\n"
VOCAB = "a\nb\nab\n"
MERGES = "a b\n"
PROFILE = "# profile\nmax_len = 2\nexcluded_single_letters = AIOYZ\n"
RANGES = "Tibetan = 0F00-0FFF\n"
PARAMS = "preset = input\nepochs = 1\nmin_count = 1\nhash_buckets = 64\n"
LABELED = "__label__bo\tཀཁ\n__label__other\thello\n"
PIPELINE = "codebook = cb.tsv\ninput_model = in.lid\noutput_model = out.lid\n"
BOM = b"\xef\xbb\xbf"


@pytest.fixture
def files(tmp_path):
    """A good file of every kind; returns a function that writes a named file."""

    def write(name: str, data: str | bytes) -> str:
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        return str(path)

    for name, text in [
        ("cb.tsv", CODEBOOK), ("transform.tsv", TRANSFORM), ("freq.tsv", FREQ),
        ("bpe/vocab.txt", VOCAB), ("bpe/merges.txt", MERGES), ("profile.cfg", PROFILE),
        ("ranges.cfg", RANGES), ("params.cfg", PARAMS), ("labeled.txt", LABELED),
        ("corpus.txt", "ཀཁ\n"),
    ]:
        write(name, text)
    write.root = tmp_path
    return write


def _with_bad_byte(text: str, after: str) -> tuple[bytes, int]:
    """`text` with a 0xFF byte put right after the first `after`; returns it and the byte's offset."""
    head, sep, tail = text.partition(after)
    assert sep
    prefix = (head + sep).encode("utf-8")
    return prefix + b"\xff" + tail.encode("utf-8"), len(prefix)


def _read_tsv_path(path: str) -> freqanalysis.FrequencyTable:
    with open(path, "rb") as fh:
        return freqanalysis.read_tsv(fh, path)


# (file to corrupt, its good text, where the bad byte goes, the command that reads it)
_COMMANDS = [
    ("cb.tsv", CODEBOOK, "0F41\t", ["encode", "--codebook", "{cb.tsv}"]),
    ("transform.tsv", TRANSFORM, "597D\t",
     ["encode", "--codebook", "{cb.tsv}", "--transform", "{transform.tsv}"]),
    ("freq.tsv", FREQ, "3905\t", ["build-codebook", "--freq", "{freq.tsv}", "--strategy", "basic"]),
    ("bpe/vocab.txt", VOCAB, "b\n", ["bpe-merge", "{bpe}", "{bpe}", "-o", "{out}"]),
    ("bpe/merges.txt", MERGES, "a ", ["bpe-merge", "{bpe}", "{bpe}", "-o", "{out}"]),
    ("profile.cfg", PROFILE, "max_len = ",
     ["build-codebook", "--freq", "{freq.tsv}", "--strategy", "basic", "--profile", "{profile.cfg}"]),
    ("ranges.cfg", RANGES, "Tibetan = ", ["analyze", "{corpus.txt}", "--ranges", "{ranges.cfg}"]),
    ("params.cfg", PARAMS, "epochs = ",
     ["langid-train", "{labeled.txt}", "--params", "{params.cfg}", "-o", "{out}"]),
    ("pipeline.cfg", "codebook = cb.tsv\n", "codebook = ", ["pipeline", "--config", "{pipeline.cfg}"]),
    ("labeled.txt", LABELED, "__label__other\t", ["langid-train", "{labeled.txt}", "-o", "{out}"]),
    ("corpus.txt", "ཀཁ\nཀ\n", "ཀཁ\n", ["verify", "{corpus.txt}", "--codebook", "{cb.tsv}"]),
    ("corpus.txt", "ཀཁ\nཀ\n", "ཀཁ\n",
     ["bpe-train", "{corpus.txt}", "--vocab-size", "8", "-o", "{out}"]),
    ("corpus.txt", "ཀཁ\nཀ\n", "ཀཁ\n",
     ["stats", "{corpus.txt}", "{corpus.txt}", "--bpe", "{bpe}"]),
]


@pytest.mark.parametrize("name, text, after, argv", _COMMANDS, ids=[c[3][0] + ":" + c[0] for c in _COMMANDS])
def test_invalid_utf8_in_a_loaded_file_exits_2_with_its_offset(files, capsys, name, text, after, argv):
    data, offset = _with_bad_byte(text, after)
    args = [str(files.root / a[1:-1]) if a.startswith("{") else a for a in argv]
    for prefix in (b"", BOM):  # a dropped BOM still counts in the offset
        path = files(name, prefix + data)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == f"error: InputError: {path}: invalid UTF-8 at byte offset {offset + len(prefix)}\n"


def test_library_loaders_raise_input_error_not_unicode_decode_error(files):
    data, offset = _with_bad_byte(CODEBOOK, "0F41\t")
    path = files("bad.tsv", data)
    with pytest.raises(InputError, match=rf"^{path}: invalid UTF-8 at byte offset {offset}$"):
        codebook.load_path(path)
    with pytest.raises(InputError, match=rf"^<codebook>: invalid UTF-8 at byte offset {offset}$"):
        codebook.load(io.BytesIO(data))
    with pytest.raises(InputError, match=r"^x: invalid UTF-8 at byte offset 3$"):
        freqanalysis.read_tsv(io.BytesIO(b"#s=\xff\n"), "x")
    for name, text, after, load in [
        ("bad-transform.tsv", TRANSFORM, "597D\t", codebook.load_transform),
        ("bad.cfg", PROFILE, "max_len = ", config.load_kv),
        ("bad-labeled.txt", LABELED, "__label__bo\t", langid.read_labeled),
    ]:
        data, offset = _with_bad_byte(text, after)
        path = files(name, data)
        with pytest.raises(InputError, match=rf"^{path}: invalid UTF-8 at byte offset {offset}$"):
            load(path)


def test_pipeline_from_config_raises_input_error_on_a_corrupt_codebook(files):
    data, offset = _with_bad_byte(CODEBOOK, "0F41\t")
    params = langid.TrainingParams(epochs=1, min_count=1)
    model = langid.train([("ab", "x"), ("cd", "y")], params, hash_buckets=16)
    lid = str(files.root / "m.lid")
    langid.save_model(model, lid)
    cfg = PipelineConfig(files("bad.tsv", data), lid, lid)
    with pytest.raises(InputError, match=rf"bad.tsv: invalid UTF-8 at byte offset {offset}$"):
        Pipeline.from_config(cfg)


# --- a lone "\r" is text: it stays inside its row ------------------------------


def test_lone_cr_stays_inside_a_codebook_row(files, capsys):
    path = files("cr.tsv", "#strategy=basic freq_digest=\n0F40\tB\t1\t0\r0F41\tC\t2\t0\n")
    with pytest.raises(FormatError, match=rf"^{path} line 2: expected 4 tab-separated fields$"):
        codebook.load_path(path)
    assert main(["encode", "--codebook", path]) == 2
    assert capsys.readouterr().err == f"error: FormatError: {path} line 2: expected 4 tab-separated fields\n"


def test_lone_cr_stays_inside_a_config_value(files, capsys):
    path = files("cr.cfg", "a = 1\rb = 2\nc = 3\n")
    assert config.load_kv(path) == {"a": "1\rb = 2", "c": "3"}
    profile = files("profile-cr.cfg", "max_len = 3\rexcluded_single_letters = A\n")
    freq = str(files.root / "freq.tsv")
    assert main(["build-codebook", "--freq", freq, "--strategy", "basic", "--profile", profile]) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {profile} line 1: key 'max_len' must be an integer\n"


def test_lone_cr_stays_inside_a_frequency_row(files, capsys):
    good = files("cr-freq.tsv", "#scripts=Tibetan\n3904\tU+0F40\tTib\retan\t1\n3905\tU+0F41\tTibetan\t2\n")
    assert _read_tsv_path(good).script_of == {0x0F40: "Tib\retan", 0x0F41: "Tibetan"}
    bad = files("cr-bad.tsv", "#scripts=Tibetan\n3904\tU+0F40\tTib\retan\t1\n3905\tU+0F41\tTibetan\n")
    assert main(["build-codebook", "--freq", bad, "--strategy", "basic"]) == 2
    assert capsys.readouterr().err == f"error: FormatError: {bad} line 3: expected 4 tab-separated fields\n"


def test_lone_cr_stays_inside_transform_and_vocab_lines(files):
    assert codebook.load_transform(files("cr-t.tsv", "4F60\tni\r3\n")) == {0x4F60: "ni\r3"}
    files("cr-bpe/vocab.txt", "a\nb\r\nab\na\rb\n")
    files("cr-bpe/merges.txt", "a b\n")
    assert bpe.load_model(str(files.root / "cr-bpe")).vocab == ["a", "b", "ab", "a\rb"]


def test_a_bom_after_the_start_of_a_file_is_text(files):
    files("bom-bpe/vocab.txt", "\ufeffa\n\ufeffb\nab\n\ufeffab\n")
    files("bom-bpe/merges.txt", "\ufeff\ufeffa b\n")
    model = bpe.load_model(str(files.root / "bom-bpe"))
    assert model.vocab == ["a", "\ufeffb", "ab", "\ufeffab"]
    assert model.merges == [("\ufeffa", "b")]
    path = files("bom-cb.tsv", "#strategy=basic freq_digest=\n0F40\tB\t1\t0\n\ufeff0F41\tC\t2\t0\n")
    with pytest.raises(FormatError, match=rf"^{path} line 3: invalid literal"):
        codebook.load_path(path)


# --- every loader error names its file and line ---------------------------------


# (file, its bad text, the command that reads it, the error after the file's path)
_LOCATED = [
    ("transform.tsv", "4F60\tni3\n597D\n",
     ["encode", "--codebook", "{cb.tsv}", "--transform", "{transform.tsv}"],
     "FormatError", "line 2: expected 'codepoint_hex<TAB>replacement'"),
    ("transform.tsv", "4F60\tni3\n597D\thao3\n110000\tx\n",
     ["encode", "--codebook", "{cb.tsv}", "--transform", "{transform.tsv}"],
     "FormatError", "line 3: code point '110000' out of range"),
    ("transform.tsv", "4F60\tni3\n597D\thao3\n# a comment\n-41\tx\n",
     ["encode", "--codebook", "{cb.tsv}", "--transform", "{transform.tsv}"],
     "FormatError", "line 4: code point '-41' out of range"),
    ("cb.tsv", "#strategy=basic freq_digest=\n0F40\tB\t1\t0\n0041\tC\t2\t0\n",
     ["encode", "--codebook", "{cb.tsv}"],
     "IntegrityError", "line 3: U+0041 ('A') is reserved by the wire grammar"),
    ("cb.tsv", "#strategy=fancy freq_digest=\n",
     ["encode", "--codebook", "{cb.tsv}"],
     "ConfigError", "line 1: unknown strategy 'fancy'; expected one of ('basic', 'tokenizer_opt', 'hybrid')"),
    ("freq.tsv", "#scripts=Tibetan\n3904\tU+0F40\tTibetan\n",
     ["build-codebook", "--freq", "{freq.tsv}", "--strategy", "basic"],
     "FormatError", "line 2: expected 4 tab-separated fields"),
    ("bpe/merges.txt", "a b c\n",
     ["bpe-merge", "{bpe}", "{bpe}", "-o", "{out}"],
     "FormatError", "line 1: expected two space-separated symbols"),
    ("labeled.txt", "__label__bo\tཀ\nhello\n",
     ["langid-train", "{labeled.txt}", "-o", "{out}"],
     "FormatError", "line 2: expected '__label__<tag>\\t<text>'"),
    ("transform.tsv", "4F60\tni3\n597D\thao3\n# a comment\n\n0041\tx\n",
     ["encode", "--codebook", "{cb.tsv}", "--transform", "{transform.tsv}"],
     "IntegrityError", "line 5: U+0041 ('A') is reserved by the wire grammar"),
    ("transform.tsv", "4F60\tni3\n597D\thao3\n# a comment\n\n4E00\tyi1\nD800\ty\n",
     ["encode", "--codebook", "{cb.tsv}", "--transform", "{transform.tsv}"],
     "FormatError", "line 6: code point U+D800 is a surrogate"),
    ("bpe/vocab.txt", "a\nb\n\nab\na\n",
     ["bpe-merge", "{bpe}", "{bpe}", "-o", "{out}"],
     "FormatError", "line 5: token 'a' already on line 1"),
    ("bpe/merges.txt", "a b\n\nb a\n",
     ["bpe-merge", "{bpe}", "{bpe}", "-o", "{out}"],
     "FormatError", "line 3: merge result 'ba' missing from vocab"),
    ("profile.cfg", "# profile\nmax_len = 2\n\nexcluded_single_letters = A1\n",
     ["build-codebook", "--freq", "{freq.tsv}", "--strategy", "basic", "--profile", "{profile.cfg}"],
     "ConfigError", "line 4: bad letter '1' in 'A1'"),
    ("profile.cfg", "two_char_first_letters = A-\nmax_len = 2\n",
     ["build-codebook", "--freq", "{freq.tsv}", "--strategy", "basic", "--profile", "{profile.cfg}"],
     "ConfigError", "line 1: bad letter range 'A-'"),
]

@pytest.mark.parametrize(
    "name, text, argv, kind, message", _LOCATED, ids=[c[4][:6] + ":" + c[0] for c in _LOCATED]
)
def test_a_loader_error_names_its_file_and_line(files, capsys, name, text, argv, kind, message):
    path = files(name, text)
    assert main([str(files.root / a[1:-1]) if a.startswith("{") else a for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {kind}: {path} {message}\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("0x0F41\tC\t2\t0", "code point '0x0F41' is not written as 0F41"),
        ("0f41\tC\t2\t0", "code point '0f41' is not written as 0F41"),
        ("0F_41\tC\t2\t0", "code point '0F_41' is not written as 0F41"),
        (" 0F41\tC\t2\t0", "code point ' 0F41' is not written as 0F41"),
        ("F41\tC\t2\t0", "code point 'F41' is not written as 0F41"),
        ("0F41\tC\t+5\t0", "rank '+5' is not a decimal of 1 or more"),
        ("0F41\tC\t 5\t0", "rank ' 5' is not a decimal of 1 or more"),
        ("0F41\tC\t1_0\t0", "rank '1_0' is not a decimal of 1 or more"),
        ("0F41\tC\t-3\t0", "rank '-3' is not a decimal of 1 or more"),
        ("0F41\tC\t0\t0", "rank '0' is not a decimal of 1 or more"),
        ("0F41\tC\t02\t0", "rank '02' is not a decimal of 1 or more"),
        ("0F41\tC\t2\t-1", "token count '-1' is not a decimal of 0 or more"),
        ("0F41\tC\t2\t+0", "token count '+0' is not a decimal of 0 or more"),
        ("0F41\tC\t2\t00", "token count '00' is not a decimal of 0 or more"),
        ("0F41\tC\t2\t1 ", "token count '1 ' is not a decimal of 0 or more"),
    ],
)
def test_a_codebook_row_loads_only_as_save_writes_it(files, capsys, row, message):
    path = files("cb.tsv", f"#strategy=basic freq_digest=\n0F40\tB\t1\t0\n{row}\n")
    assert main(["encode", "--codebook", path]) == 2
    assert capsys.readouterr().err == f"error: FormatError: {path} line 3: {message}\n"


def test_a_codebook_rank_is_used_once(files, capsys):
    # `save` writes each entry's own rank, and no builder gives two entries one rank.
    path = files("cb.tsv", "#strategy=basic freq_digest=\n0F40\tB\t1\t0\n# a comment\n0F41\tC\t1\t0\n")
    assert main(["encode", "--codebook", path]) == 2
    assert capsys.readouterr().err == f"error: IntegrityError: {path} line 4: rank 1 already used on line 2\n"
    # The checks before it come first: a row that repeats both a character and a rank names the character.
    path = files("cb.tsv", "#strategy=basic freq_digest=\n0F40\tB\t1\t0\n0F40\tC\t1\t0\n")
    assert main(["encode", "--codebook", path]) == 2
    assert "character U+0F40 already mapped on line 2" in capsys.readouterr().err


# --- CRLF and BOM files load to the same objects as plain LF files -------------


def _bpe_dir(path: str) -> bpe.BpeModel:
    return bpe.load_model(str(Path(path).parent))


_LOADERS = [
    ("cb.tsv", CODEBOOK, codebook.load_path),
    ("transform.tsv", TRANSFORM, codebook.load_transform),
    ("freq.tsv", FREQ, _read_tsv_path),
    ("bpe/vocab.txt", VOCAB, _bpe_dir),
    ("bpe/merges.txt", MERGES, _bpe_dir),
    ("profile.cfg", PROFILE, config.load_profile),
    ("ranges.cfg", RANGES, config.load_ranges),
    ("params.cfg", PARAMS, config.load_training_params),
    ("labeled.txt", LABELED, langid.read_labeled),
    ("pipeline.cfg", PIPELINE, config.load_pipeline_config),
    ("profile-first-key.cfg", "max_len = 4\n", config.load_profile),  # a kept BOM would hide the key
]


@pytest.mark.parametrize("name, text, load", _LOADERS, ids=[n for n, _, _ in _LOADERS])
def test_crlf_files_load_to_the_same_objects(files, name, text, load):
    lf = load(files(name, text))
    crlf = text.replace("\n", "\r\n")
    for variant in (crlf, "\ufeff" + text, "\ufeff" + crlf):
        assert load(files(name, variant)) == lf, repr(variant)


# --- fuzzing: every loader ends in success or a TranslitError ------------------

# Line and field syntax of every format, plus bytes that are not UTF-8.
_PIECES = st.sampled_from([
    b"\n", b"\r", b"\r\n", BOM, b"\t", b" ", b"=", b" = ", b"#", b"\xff", b"\xc3", b"-", b",", b"U+",
    b"0F40", b"0F41", b"3904", b"10FFFF", b"D800", b"B", b"C", b"Aa", b"a", b"b", b"ab", b"1", b"0", b"2",
    b"Tibetan", b"other", b"#strategy=basic freq_digest=", b"#strategy=", b"#scripts=Tibetan",
    b"__label__bo\t", b"__label__", b"max_len", b"preset", b"input", b"output", b"epochs",
    b"excluded_single_letters", b"two_char_first_letters", b"codebook", b"input_model",
    b"confidence_threshold", b"\xe0\xbd\x80",
])
_BYTES = st.lists(st.one_of(_PIECES, st.binary(max_size=3)), max_size=40).map(b"".join)

_FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _fuzz_file(dirpath: Path, data: bytes) -> str:
    path = dirpath / "fuzz"
    path.write_bytes(data)
    return str(path)


_TEXT_LOADERS = {
    "codebook.load_path": codebook.load_path,
    "codebook.load_transform": codebook.load_transform,
    "freqanalysis.read_tsv": _read_tsv_path,
    "config.load_kv": config.load_kv,
    "config.load_profile": config.load_profile,
    "config.load_ranges": config.load_ranges,
    "config.load_pipeline_config": config.load_pipeline_config,
    "config.load_training_params": config.load_training_params,
    "langid.read_labeled": langid.read_labeled,
}


@pytest.mark.parametrize("loader", sorted(_TEXT_LOADERS))
@_FUZZ
@given(data=_BYTES)
def test_text_loaders_fuzz(tmp_path, loader, data):
    try:
        _TEXT_LOADERS[loader](_fuzz_file(tmp_path, data))
    except TranslitError:
        pass


@_FUZZ
@given(vocab=_BYTES, merges=_BYTES)
def test_bpe_load_model_fuzz(tmp_path, vocab, merges):
    (tmp_path / "vocab.txt").write_bytes(vocab)
    (tmp_path / "merges.txt").write_bytes(merges)
    try:
        bpe.load_model(str(tmp_path))
    except TranslitError:
        pass


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
# Mostly near-valid headers, so that later checks are reached too.
_HEADER = st.one_of(
    _JSON,
    st.fixed_dictionaries({
        "labels": st.lists(st.text(max_size=3), max_size=3) | _JSON,
        "ngram_range": st.lists(st.integers(-1, 4), max_size=3) | _JSON,
        "hash_buckets": st.integers(-1, 3) | _JSON,
        "training_params": st.fixed_dictionaries(
            {"ngram_range": st.lists(st.integers(1, 3), max_size=3) | _JSON},
            optional={"dim": _JSON, "window": _JSON, "seed": _JSON, "depth": _JSON},
        ) | _JSON,
    }),
)


_NEAR_VALID = {
    "labels": ["a"], "ngram_range": [1, 2], "hash_buckets": 1, "training_params": {"ngram_range": [1, 2]},
}


def _rows_payload(k: int, ids: list[int], rows: int) -> bytes:
    """A version-2 payload: row count `k`, then `ids` as uint32 and `rows` float64 zeros."""
    return struct.pack(f"<Q{len(ids)}I", k, *ids) + bytes(8 * rows)


# Near-valid version-2 payloads, each with the lengths of one label and up to three buckets.
_ROWS_PAYLOAD = st.integers(0, 4).flatmap(lambda k: st.builds(
    _rows_payload, st.sampled_from([k, k, k + 1, k - 1 if k else 1 << 63]),
    st.lists(st.integers(0, 4) | st.sampled_from([(1 << 32) - 1]), min_size=k, max_size=k),
    st.sampled_from([k + 1, k + 1, k, k + 2]),
))


@_FUZZ
@example(header={**_NEAR_VALID, "hash_buckets": float("inf")}, blob_len_delta=0, payload=bytes(16),
         magic=langid._MAGIC_V1)
@example(header={**_NEAR_VALID, "training_params": []}, blob_len_delta=0, payload=bytes(16), magic=langid._MAGIC_V1)
@example(header=_NEAR_VALID, blob_len_delta=0, payload=bytes(16), magic=langid._MAGIC_V1)
@example(header=_NEAR_VALID, blob_len_delta=0, payload=_rows_payload(0, [], 1), magic=langid._MAGIC)
@example(header={**_NEAR_VALID, "hash_buckets": 3}, blob_len_delta=0, payload=_rows_payload(2, [2, 1], 3),
         magic=langid._MAGIC)
@example(header={**_NEAR_VALID, "hash_buckets": 3}, blob_len_delta=0, payload=_rows_payload(1, [3], 2),
         magic=langid._MAGIC)
@example(header=_NEAR_VALID, blob_len_delta=0, payload=_rows_payload(2, [0, 1], 3), magic=langid._MAGIC)
@example(header={**_NEAR_VALID, "hash_buckets": (1 << 32) + 1}, blob_len_delta=0, payload=_rows_payload(0, [], 1),
         magic=langid._MAGIC)
@given(header=_HEADER, blob_len_delta=st.sampled_from([0, 0, 0, -1, 1, 1 << 20]),
       payload=st.integers(0, 12).map(lambda k: bytes(8 * k)) | st.binary(max_size=40) | _ROWS_PAYLOAD,
       magic=st.sampled_from([langid._MAGIC, langid._MAGIC_V1]))
def test_langid_load_model_fuzz(tmp_path, header, blob_len_delta, payload, magic):
    blob = json.dumps(header).encode("utf-8")
    prefix = struct.pack("<I", max(0, len(blob) + blob_len_delta))
    path = _fuzz_file(tmp_path, magic + prefix + blob + payload)
    try:
        langid.load_model(path)
    except TranslitError:
        pass


# --- guard: only textio turns file bytes into text lines -----------------------


def _text_reads(source: str) -> list[str]:
    """Text-mode file reads, hand-stripped "\\r"s and BOM or CRLF strings, as 'line N: ...'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += [f"line {node.lineno}: string holding {s!r}" for s in ("\ufeff", "\r\n")
                      if s in node.value]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r")
            )
            if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
                found.append(f"line {node.lineno}: open() with a mode that is not a literal")
            elif "b" not in mode.value and not set(mode.value) & set("wax"):
                found.append(f"line {node.lineno}: open() in text read mode {mode.value!r}")
        elif isinstance(func, ast.Attribute) and func.attr == "rstrip" and node.args:
            chars = node.args[0]
            if isinstance(chars, ast.Constant) and isinstance(chars.value, str) and "\r" in chars.value:
                found.append(f"line {node.lineno}: .rstrip({chars.value!r})")
    return found


def test_guard_catches_private_readers():
    source = (
        'open(p)\nopen(p, "r")\nopen(p, encoding="utf-8", newline="")\nopen(p, mode="rt")\n'
        'open(p, m)\nline.rstrip("\\n").rstrip("\\r")\n'
        'text.removeprefix("\\ufeff")\ntext.replace("\\r\\n", "\\n")\n'
        'open(p, "rb")\nopen(p, "w")\nopen(p, "wb")\nopen(p, mode="a")\nline.rstrip("\\n")\n'
        'text.replace("\\r", "")\n'
    )
    assert {f.split(":")[0] for f in _text_reads(source)} == {f"line {n}" for n in range(1, 9)}


def test_only_textio_decodes_text_files():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    offenders = {
        path.name: found
        for path in modules
        if path.name != "textio.py" and (found := _text_reads(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
