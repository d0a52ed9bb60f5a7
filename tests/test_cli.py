import io
import itertools
import json
import logging
import random
import shlex
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from translitkit import codebook, langid, synth, textio, translit
from translitkit.bpe import BpeModel, save_model
from translitkit.cli import main
from translitkit.config import load_pipeline_config
from translitkit.errors import TranslitError
from translitkit.pipeline import Pipeline
from translitkit.textio import BLOCK_SIZE
from translitkit.translit import from_latin, to_latin

from reference import naive_tokenize, ref_encode

LOW_RESOURCE = ("bo", "mn", "ug")


def _stdin(text: str) -> io.TextIOWrapper:
    """A bytes-backed stdin, like the process's own."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def _pipe(argv: list[str], data: bytes) -> tuple[int, bytes]:
    """Run main() with `data` as stdin; returns the exit code and the stdout bytes."""
    out = io.BytesIO()
    with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(data))), \
            mock.patch.object(sys, "stdout", io.TextIOWrapper(out, write_through=True)):
        code = main(argv)
        return code, out.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """End-to-end artifact set built through the CLI itself where possible."""
    root = tmp_path_factory.mktemp("cli")
    rng = random.Random(2024)

    lines = synth.mixed_lines(rng, 400)
    corpus = root / "corpus.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")

    assert main(["analyze", str(corpus), "-o", str(root / "freq.tsv")]) == 0
    assert main([
        "build-codebook", "--freq", str(root / "freq.tsv"),
        "--strategy", "basic", "--scripts", "Tibetan,Mongolian,Uyghur",
        "-o", str(root / "cb.tsv"),
    ]) == 0
    cb = codebook.load_path(str(root / "cb.tsv"))

    encoded_lines = [to_latin(line, cb) for line in lines]
    encoded = root / "encoded.txt"
    encoded.write_text("\n".join(encoded_lines) + "\n", encoding="utf-8")

    assert main(["bpe-train", str(encoded), "--vocab-size", "400",
                 "-o", str(root / "bpe")]) == 0

    labeled_raw = root / "labeled_raw.txt"
    pairs = synth.labeled_lines(rng, 120)
    labeled_raw.write_text(
        "".join(f"__label__{tag}\t{text}\n" for text, tag in pairs), encoding="utf-8"
    )
    labeled_enc = root / "labeled_enc.txt"
    labeled_enc.write_text(
        "".join(
            f"__label__{tag}\t{to_latin(text, cb) if tag in LOW_RESOURCE else text}\n"
            for text, tag in pairs
        ),
        encoding="utf-8",
    )
    (root / "lid-input.cfg").write_text(
        "preset = input\nepochs = 3\nmin_count = 1\nhash_buckets = 65536\n", encoding="utf-8"
    )
    (root / "lid-output.cfg").write_text(
        "preset = output\nepochs = 3\nmin_count = 1\nhash_buckets = 65536\n", encoding="utf-8"
    )
    assert main(["langid-train", str(labeled_raw), "--params", str(root / "lid-input.cfg"),
                 "-o", str(root / "in.lid")]) == 0
    assert main(["langid-train", str(labeled_enc), "--params", str(root / "lid-output.cfg"),
                 "-o", str(root / "out.lid")]) == 0

    (root / "pipeline.cfg").write_text(
        "codebook = cb.tsv\ninput_model = in.lid\noutput_model = out.lid\n"
        "model_stage = identity\ndecode_mode = strict\nconfidence_threshold = 0.5\n",
        encoding="utf-8",
    )
    return root, cb, lines


def test_version(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "translitkit" in out and "codebook-tsv" in out


def test_usage_errors_exit_1(capsys):
    assert main(["encode"]) == 1  # missing --codebook
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "error: usage:" in err


@pytest.mark.parametrize("size", ["0", "-5"])
def test_bpe_train_vocab_size_below_1_is_a_usage_error(tmp_path, capsys, size):
    # The corpus does not exist: the check comes before it is read.
    out = tmp_path / "bpe"
    assert main(["bpe-train", str(tmp_path / "missing.txt"), "--vocab-size", size, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: usage: argument --vocab-size: must be at least 1, got {size}\n"
    assert not out.exists()


def test_log_level_is_checked_as_a_usage_error(capsys):
    assert main(["--log-level", "foo", "--version"]) == 1
    assert capsys.readouterr().err.startswith("error: usage: argument --log-level: invalid choice: 'foo'")
    assert main(["--log-level", "ERROR", "--version"]) == 0
    assert logging.getLogger("translitkit").level == logging.ERROR
    assert main(["--version"]) == 0  # back to the default
    assert logging.getLogger("translitkit").level == logging.WARNING


def test_langid_train_options_come_only_from_the_params_file(capsys, tmp_path):
    labeled, out = str(tmp_path / "labeled.txt"), str(tmp_path / "m.lid")
    assert main(["--seed", "3", "langid-train", labeled, "-o", out]) == 1
    assert main(["langid-train", labeled, "--hash-buckets", "64", "-o", out]) == 1
    assert capsys.readouterr().err.count("error: usage:") == 2


def test_langid_train_without_params_takes_the_input_preset(tmp_path):
    labeled, out = tmp_path / "labeled.txt", str(tmp_path / "m.lid")
    labeled.write_text("__label__bo\tཀཁ\n__label__other\thello\n", encoding="utf-8")
    assert main(["langid-train", str(labeled), "-o", out]) == 0
    model = langid.load_model(out)
    assert model.hash_buckets == langid.DEFAULT_HASH_BUCKETS
    assert model.training_params == langid.TrainingParams.input_defaults()
    assert model.ngram_range == langid.TrainingParams.input_defaults().ngram_range


def test_missing_file_exits_2(capsys, tmp_path):
    assert main(["verify", str(tmp_path / "nope.txt"), "--codebook", str(tmp_path / "cb.tsv")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_stdout_is_tsv(workspace, capsys):
    root, _, _ = workspace
    assert main(["analyze", str(root / "corpus.txt")]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows and all(len(r.split("\t")) == 4 for r in rows)


def test_encode_decode_roundtrip(workspace, capsys, monkeypatch):
    root, _, lines = workspace
    text_in = "\n".join(lines[:100]) + "\n"
    monkeypatch.setattr("sys.stdin", _stdin(text_in))
    assert main(["encode", "--codebook", str(root / "cb.tsv")]) == 0
    encoded = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", _stdin(encoded))
    assert main(["decode", "--codebook", str(root / "cb.tsv")]) == 0
    decoded = capsys.readouterr().out
    assert decoded == text_in


def test_decode_strict_error_exits_2(workspace, capsys, monkeypatch):
    root, _, _ = workspace
    monkeypatch.setattr("sys.stdin", _stdin("Zz\n"))
    code = main(["decode", "--codebook", str(root / "cb.tsv"), "--mode", "strict"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_decode_lenient_warns(workspace, capsys, monkeypatch):
    root, _, _ = workspace
    monkeypatch.setattr("sys.stdin", _stdin("Zz\n"))
    assert main(["decode", "--codebook", str(root / "cb.tsv"), "--mode", "lenient"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "Zz\n"
    assert "decode warnings: 1" in captured.err


def test_decode_of_a_codebook_with_five_letter_codes(tmp_path):
    # The kernel leaves a code of five or more letters to the scan, block after block.
    codes = ["B", "Babcd", "C", "Qwxyz"]
    cb = codebook.Codebook([codebook.CodebookEntry(0x0F40 + i, c, i + 1, 0) for i, c in enumerate(codes)], "basic")
    codebook.save_path(cb, str(tmp_path / "cb.tsv"))
    encoded = "BBabcd C་Qwxyz@a@@b@\n" * 5000  # more than one block
    assert len(encoded) > BLOCK_SIZE
    code, out = _pipe(["decode", "--codebook", str(tmp_path / "cb.tsv")], encoded.encode("utf-8"))
    assert code == 0
    assert out == from_latin(encoded, cb).encode("utf-8")
    assert out.startswith("\u0f40\u0f41 \u0f42\u0f0b\u0f43a@b\n".encode("utf-8"))


def test_decode_of_five_letter_codes_scans_only_their_lines(tmp_path, monkeypatch):
    # The input of the test above: every line holds a five-letter code, so the
    # kernel marks each, and only the scan decodes them, once per line.
    from translitkit import kernel

    codes = ["B", "Babcd", "C", "Qwxyz"]
    cb = codebook.Codebook([codebook.CodebookEntry(0x0F40 + i, c, i + 1, 0) for i, c in enumerate(codes)], "basic")
    codebook.save_path(cb, str(tmp_path / "cb.tsv"))
    data = ("BBabcd C་Qwxyz@a@@b@\n" * 5000).encode("utf-8")
    expected = from_latin(data.decode("utf-8"), cb).encode("utf-8")
    blocks = list(textio.read_blocks(io.BytesIO(data), "<stdin>"))
    assert len(blocks) > 1
    calls, scans = [], []
    real_lines, real_scan = kernel.kernel_lines, translit.scan_decode
    monkeypatch.setattr(kernel, "kernel_lines", lambda enc, cb: calls.append(enc) or real_lines(enc, cb))
    monkeypatch.setattr(translit, "scan_decode", lambda enc, *args: scans.append(enc) or real_scan(enc, *args))
    monkeypatch.setattr(translit, "decode", lambda *args: pytest.fail("translit.decode was called"))
    code, out = _pipe(["decode", "--codebook", str(tmp_path / "cb.tsv")], data)
    assert (code, out) == (0, expected)
    assert calls == blocks
    assert scans == ["BBabcd C་Qwxyz@a@@b@"] * 5000


def test_verify_reports_zero_failures(workspace, capsys):
    root, _, _ = workspace
    assert main(["verify", str(root / "corpus.txt"), "--codebook", str(root / "cb.tsv")]) == 0
    out = capsys.readouterr().out
    assert "failures: 0" in out


def test_verify_exit_3_on_failures(workspace, capsys, monkeypatch):
    import translitkit.cli as cli_mod
    from translitkit.translit import RoundtripReport

    root, _, _ = workspace
    monkeypatch.setattr(
        cli_mod.translit, "verify_roundtrip", lambda lines, cb: RoundtripReport(5, 2, 1)
    )
    assert main(["verify", str(root / "corpus.txt"), "--codebook", str(root / "cb.tsv")]) == 3
    out = capsys.readouterr().out
    assert "failures: 2" in out and "first_failure_offset: 1" in out



def test_verify_report_over_a_bom_crlf_file_with_failing_lines(tmp_path, capsys, monkeypatch):
    # "\x01" passes through the real encoder; the spoiled one puts a wrong code
    # in its place, in a whole batch and in a single line alike.
    real = translit.translator
    monkeypatch.setattr(translit, "translator", lambda cb: lambda text: real(cb)(text).replace("\x01", "C"))
    cb_path = tmp_path / "cb.tsv"
    codebook.save_path(codebook.build_basic([0x0F40, 0x0F41]), str(cb_path))  # ཀ -> "B", ཁ -> "C"
    lines = ["ཀཁ a@b\rc" * (i % 7) + ("\x01" if i % 500 == 3 else "") for i in range(3000)]
    ends = ["\r\n" if i % 2 else "\n" for i in range(len(lines) - 1)] + [""]  # no end on the last line
    starts = list(itertools.accumulate(
        (len((line + end).encode("utf-8")) for line, end in zip(lines, ends)), initial=len(textio.BOM.encode())
    ))
    spanning = next(i for i in range(len(lines)) if starts[i] < BLOCK_SIZE < starts[i + 1])
    assert spanning == 1748
    lines[spanning] += "\x01"  # a failing line across the first block boundary
    (tmp_path / "corpus.txt").write_bytes((textio.BOM + "".join(map(str.__add__, lines, ends))).encode("utf-8"))
    assert main(["verify", str(tmp_path / "corpus.txt"), "--codebook", str(cb_path)]) == 3
    assert capsys.readouterr().out == "total: 3000\nfailures: 7\nfirst_failure_offset: 3\n"


def test_stats_json_and_human(workspace, capsys):
    root, _, _ = workspace
    args = [
        "stats", str(root / "corpus.txt"), str(root / "encoded.txt"),
        "--bpe", str(root / "bpe"), "--codebook", str(root / "cb.tsv"), "--lang", "mixed",
    ]
    assert main(args) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["language_tag"] == "mixed"
    assert record["file_ratio"] > 1.0
    assert record["original_bytes"] > record["encoded_bytes"]
    assert main(args + ["--human"]) == 0
    table = capsys.readouterr().out
    assert "File Compr." in table and "basic" in table


def test_stats_counts_a_bom_crlf_pair_as_the_lf_pair(workspace, tmp_path, capsys):
    root, cb, _ = workspace
    lines = ["ཀཁ ab", "ᠠ x", ""]
    encoded = [to_latin(line, cb) for line in lines]
    reports = []
    for bom, end in (("", "\n"), ("\ufeff", "\r\n")):
        paths = []
        for name, texts in (("original", lines), ("encoded", encoded)):
            path = tmp_path / f"{name}-{len(end)}.txt"
            path.write_bytes((bom + "".join(text + end for text in texts)).encode("utf-8"))
            paths.append(str(path))
        assert main(["stats", *paths, "--bpe", str(root / "bpe")]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert reports[0]["original_bytes"] == sum(len(text.encode("utf-8")) + 1 for text in lines)
    assert reports[0]["encoded_bytes"] == sum(len(text.encode("utf-8")) + 1 for text in encoded)


def test_stats_loads_the_codebook_before_tokenizing(workspace, tmp_path, capsys):
    root, _, _ = workspace
    bad = tmp_path / "bad.tsv"
    bad.write_text("#strategy=nope freq_digest=0\n", encoding="utf-8")
    args = ["stats", str(root / "corpus.txt"), str(root / "encoded.txt"), "--bpe", str(root / "bpe")]
    with mock.patch.object(BpeModel, "tokenize", side_effect=AssertionError("tokenized")):
        assert main([*args, "--codebook", str(bad)]) == 2
        expected = f"{bad} line 1: unknown strategy 'nope'; expected one of {codebook.STRATEGIES}"
        assert capsys.readouterr().err == f"error: ConfigError: {expected}\n"
        assert main([*args, "--codebook", str(tmp_path / "missing.tsv")]) == 2
        assert capsys.readouterr().err.startswith("error: io: ")


@pytest.mark.parametrize("encoded, message", [
    (b"", "ComputationError: file ratio undefined: encoded stream is empty, original has 2 bytes"),
    (b"\n\n", "ComputationError: token ratio undefined: encoded stream has no tokens, original has 1"),
    (b"ok\n\xff\n", "InputError: {path}: invalid UTF-8 at byte offset 3"),
])
def test_stats_error_paths_exit_2(workspace, tmp_path, capsys, encoded, message):
    root, _, _ = workspace
    (tmp_path / "original.txt").write_bytes(b"x\n")
    path = tmp_path / "encoded.txt"
    path.write_bytes(encoded)
    assert main(["stats", str(tmp_path / "original.txt"), str(path), "--bpe", str(root / "bpe")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message.format(path=path)}\n")


_ORACLE_MERGES = [("a", "b"), ("ab", "c"), ("ཀ", "ཀ"), ("c", "c")]


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    """A directory holding a small BPE model under `bpe/`."""
    root = tmp_path_factory.mktemp("stats-oracle")
    (root / "bpe").mkdir()
    save_model(BpeModel(["a", "b", "c", "ཀ", "ab", "abc", "ཀཀ", "cc"], _ORACLE_MERGES), str(root / "bpe"))
    return root


@st.composite
def _stats_file(draw) -> bytes:
    """Lines, blank, whitespace-only or holding a lone CR, each ended by LF or CRLF.

    The file may start with a BOM, and its last line may have no end.
    """
    lines = draw(st.lists(st.text(st.sampled_from("abcཀᠠ \t\r"), max_size=8), max_size=6))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return (draw(st.sampled_from(["", "\ufeff"])) + "".join(map(str.__add__, lines, ends))).encode("utf-8")


def _stats_oracle(original: bytes, encoded: bytes) -> tuple[int, str]:
    """(exit code, output) of `stats` from each file's whole list of lines.

    A leading BOM counts nothing, a line end one byte and no token, and
    `naive_tokenize` counts the tokens.
    """
    counts = []
    for data in (original, encoded):
        *lines, last = data.decode("utf-8").removeprefix("\ufeff").split("\n")
        texts = [line.removesuffix("\r") for line in lines]
        size = sum(len(text.encode("utf-8")) + 1 for text in texts) + len(last.encode("utf-8"))
        counts.append((size, sum(len(naive_tokenize(text, _ORACLE_MERGES)) for text in [*texts, last])))
    (ob, ot), (eb, et) = counts
    if ob and not eb:
        return 2, f"error: ComputationError: file ratio undefined: encoded stream is empty, original has {ob} bytes\n"
    if ot and not et:
        return 2, f"error: ComputationError: token ratio undefined: encoded stream has no tokens, original has {ot}\n"
    report = {
        "original_bytes": ob, "encoded_bytes": eb, "file_ratio": ob / eb if eb else 1.0,
        "original_tokens": ot, "encoded_tokens": et, "token_ratio": ot / et if et else 1.0,
        "language_tag": "", "empty": ob == 0 and ot == 0,
    }
    return 0, json.dumps(report, ensure_ascii=False) + "\n"


@settings(max_examples=150, deadline=None)
@given(original=_stats_file(), encoded=_stats_file())
def test_stats_matches_the_whole_file_oracle(oracle_dir, original, encoded):
    paths = [oracle_dir / "original.txt", oracle_dir / "encoded.txt"]
    paths[0].write_bytes(original)
    paths[1].write_bytes(encoded)
    stderr = io.StringIO()
    with mock.patch.object(sys, "stderr", stderr):
        status, out = _pipe(["stats", *map(str, paths), "--bpe", str(oracle_dir / "bpe")], b"")
    assert (status, out.decode("utf-8") or stderr.getvalue()) == _stats_oracle(original, encoded)


def test_bpe_merge_cli(workspace, tmp_path, capsys):
    root, _, _ = workspace
    assert main(["bpe-merge", str(root / "bpe"), str(root / "bpe"),
                 "-o", str(tmp_path / "merged")]) == 0
    from translitkit.bpe import load_model

    assert load_model(str(tmp_path / "merged")) == load_model(str(root / "bpe"))


def test_detect_text_and_stdin(workspace, capsys, monkeypatch):
    root, _, _ = workspace
    tib = "ཀཁགངཅཆཇཉཏཐདནཔཕབམ"
    assert main(["detect", tib, "--model", str(root / "in.lid")]) == 0
    label, conf = capsys.readouterr().out.strip().split("\t")
    assert label == "bo"
    assert 0.0 < float(conf) <= 1.0

    monkeypatch.setattr("sys.stdin", _stdin(f"{tib}\nhello world again\n"))
    assert main(["detect", "--model", str(root / "in.lid")]) == 0
    labels = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
    assert labels == ["bo", "other"]


def test_pipeline_cli_identity(workspace, capsys, monkeypatch):
    root, _, lines = workspace
    sample = [line for line in lines[:40]]
    monkeypatch.setattr("sys.stdin", _stdin("\n".join(sample) + "\n"))
    assert main(["pipeline", "--config", str(root / "pipeline.cfg"), "--trace"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "\n".join(sample) + "\n"
    traces = [json.loads(line) for line in captured.err.splitlines() if line.startswith("{")]
    assert len(traces) == len(sample)
    assert all(t["error"] is None for t in traces)


def test_pipeline_cli_a_multi_line_stage_reply_fails_only_its_line(workspace, capsys):
    root, _, lines = workspace
    split = "import sys; print(sys.stdin.read().replace('|', chr(10)))"
    cfg = root / "pipeline-split.cfg"
    cfg.write_text(
        "codebook = cb.tsv\ninput_model = in.lid\noutput_model = out.lid\nmodel_stage = external\n"
        f"model_command = {shlex.quote(sys.executable)} -c {shlex.quote(split)}\n",
        encoding="utf-8",
    )
    texts = lines[:3] + ["two|lines"] + lines[3:6]
    data = "".join(text + "\n" for text in texts)
    code, out = _pipe(["pipeline", "--config", str(cfg), "--trace"], data.encode("utf-8"))
    assert code == 0
    # one output line per input line; the failed line comes back as it went in
    assert out.decode("utf-8") == data
    traces = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    errors = [trace["error"] for trace in traces]
    assert errors == [None] * 3 + ["StageError: model command replied with more than one line"] + [None] * 3


def test_encode_with_lossy_transform(workspace, tmp_path, capsys, monkeypatch):
    root, cb, _ = workspace
    some_mapped = min(cb.char_to_code)
    transform = tmp_path / "pinyin.tsv"
    transform.write_text("4F60\tni3\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", _stdin("你" + chr(some_mapped) + "\n"))
    assert main(["encode", "--codebook", str(root / "cb.tsv"),
                 "--transform", str(transform)]) == 0
    out = capsys.readouterr().out
    assert out == "ni3" + cb.char_to_code[some_mapped] + "\n"


def test_encode_with_a_transform_whose_values_hold_codebook_characters(workspace, tmp_path):
    root, cb, _ = workspace
    # The lowest mapped character is the one the encoder would mark runs with.
    low, second, third = (chr(cp) for cp in sorted(cb.char_to_code)[:3])
    transform = {0x4F60: low + "@", 0x00B7: "a" + second + third, 0x3002: low}
    path = tmp_path / "t.tsv"
    path.write_text("".join(f"{cp:04X}\t{value}\n" for cp, value in transform.items()), encoding="utf-8")
    rng = random.Random(7)
    lines = ["", "你", "a你b", low + "a·@", "@" + low + "@", "x。y"]
    for line in synth.mixed_lines(rng, 300):
        cut = rng.randint(0, len(line))
        lines.append(line[:cut] + rng.choice(["你", "·", "。", "@你a", low]) + line[cut:])
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    status, out = _pipe(["encode", "--codebook", str(root / "cb.tsv"), "--transform", str(path)], data)
    assert status == 0
    assert out == "".join(ref_encode(line, cb.char_to_code, transform) + "\n" for line in lines).encode("utf-8")


def test_build_codebook_tokenizer_requires_bpe(workspace, capsys):
    root, _, _ = workspace
    code = main(["build-codebook", "--freq", str(root / "freq.tsv"), "--strategy", "tokenizer"])
    assert code == 1
    assert "requires --bpe" in capsys.readouterr().err


def test_build_codebook_tokenizer_strategy(workspace, tmp_path, capsys):
    root, _, _ = workspace
    out = tmp_path / "cb-tok.tsv"
    assert main([
        "build-codebook", "--freq", str(root / "freq.tsv"), "--strategy", "tokenizer",
        "--scripts", "Tibetan,Mongolian,Uyghur", "--bpe", str(root / "bpe"), "-o", str(out),
    ]) == 0
    cb = codebook.load_path(str(out))
    assert cb.strategy == "tokenizer_opt"
    assert all(e.token_count >= 1 for e in cb.entries)


def _byte_cases(cb) -> list[bytes]:
    mapped = chr(min(cb.char_to_code))
    return [
        "ཀཁ\r\nab\rcd\r\n".encode("utf-8"),
        f"{mapped} one\r\n{mapped}{mapped} two\r\n\r\n".encode("utf-8"),
        f"x@y\rz {mapped}\n".encode("utf-8"),
        f"\ufeff{mapped} bom\n".encode("utf-8"),
        f"{mapped} no final newline".encode("utf-8"),
    ]


def test_encode_decode_byte_identical_terminators(workspace):
    root, cb, _ = workspace
    args = ["--codebook", str(root / "cb.tsv")]
    for data in _byte_cases(cb):
        code, encoded = _pipe(["encode", *args], data)
        assert code == 0
        code, decoded = _pipe(["decode", *args], encoded)
        assert code == 0
        assert decoded == data


# Arbitrary text that UTF-8 can encode (no lone surrogates), with terminators,
# '@' runs, a BOM and mapped characters made common.
_TEXT = st.text(st.one_of(st.characters(codec="utf-8"), st.sampled_from("\r\n\ufeff@aZཀཁᠠا")))


@settings(max_examples=60, deadline=None)
@given(text=_TEXT)
def test_encode_decode_byte_identity_property(workspace, text):
    root, _, _ = workspace
    data = text.encode("utf-8")
    code, encoded = _pipe(["encode", "--codebook", str(root / "cb.tsv")], data)
    assert code == 0
    code, decoded = _pipe(["decode", "--codebook", str(root / "cb.tsv")], encoded)
    assert code == 0
    assert decoded == data


def test_invalid_stdin_reports_byte_offset(workspace, capsys):
    root, _, _ = workspace
    code, _ = _pipe(["encode", "--codebook", str(root / "cb.tsv")], b"\xe0\xbd\x80\n\xff\n")
    assert code == 2
    assert "<stdin>: invalid UTF-8 at byte offset 4" in capsys.readouterr().err


def test_detect_lone_cr_is_one_record(workspace):
    root, _, _ = workspace
    code, out = _pipe(["detect", "--model", str(root / "in.lid")], b"ab\rcd\n")
    assert code == 0
    assert out.count(b"\n") == 1 and out.endswith(b"\n")


# --- encode over several input blocks ----------------------------------------


def _encoded_per_line(data: bytes, encode) -> bytes:
    """`data` with each line's text encoded on its own and its terminator kept."""
    lines = textio.split_lines(data.decode("utf-8"))
    return "".join(encode(text) + end for text, end in lines).encode("utf-8")


def test_encode_long_line_and_crlf_across_blocks(workspace):
    root, cb, _ = workspace
    mapped = chr(min(cb.char_to_code))
    pad = ("ab " * BLOCK_SIZE)[: BLOCK_SIZE - 1]  # its "\r" ends the first read, its "\n" starts the next
    long_line = (mapped + "@q@ ") * BLOCK_SIZE  # longer than a block
    many = "".join(f"{mapped * (i % 7)}x@y\r{i} ·\r\n" for i in range(6000))  # several blocks
    lines = [(pad, "\r\n"), (long_line, "\n"), ("", "\r\n"), (many, ""), (mapped, "")]
    data = "".join(text + end for text, end in lines).encode("utf-8")
    assert data[BLOCK_SIZE - 1 : BLOCK_SIZE + 1] == b"\r\n"
    status, out = _pipe(["encode", "--codebook", str(root / "cb.tsv")], data)
    assert status == 0
    assert out == _encoded_per_line(data, translit.translator(cb))


@pytest.mark.parametrize("mapped, transform", [(0x0D, ""), (0x0A, ""), (None, "000D\tCR\n")],
                         ids=["codebook-cr", "codebook-lf", "transform-cr"])
def test_encode_mapping_a_line_end_encodes_line_by_line(tmp_path, mapped, transform):
    cb = codebook.build_basic([0x0F40] + ([mapped] if mapped else []))
    codebook.save_path(cb, str(tmp_path / "cb.tsv"))
    argv = ["encode", "--codebook", str(tmp_path / "cb.tsv")]
    if transform:
        (tmp_path / "t.tsv").write_text(transform, encoding="utf-8")
        argv += ["--transform", str(tmp_path / "t.tsv")]
    encode = translit.translator(cb, codebook.load_transform(argv[-1]) if transform else None)
    for data in ["ཀ\r\nx\ry\r\n\r\n".encode("utf-8"), "\rཀ\r\rz\n\n\ra\r\r\n".encode("utf-8")]:
        status, out = _pipe(argv, data)
        assert status == 0
        assert out == _encoded_per_line(data, encode) != encode(data.decode("utf-8")).encode("utf-8")


# --- decode over several input blocks ----------------------------------------


def _encoded_lines(cb, n: int) -> list[str]:
    """n valid encoded lines of about 40 bytes: codes, an '@' run and passthrough."""
    codes = sorted(cb.code_to_char)
    return [f"{codes[i % len(codes)]}{codes[(7 * i) % len(codes)]}@x@@y@ {i} ·" + codes[0] * 20
            for i in range(n)]


def test_decode_long_line_and_crlf_across_blocks(workspace):
    root, cb, _ = workspace
    code = min(cb.code_to_char, key=len)  # one letter
    pad = code * (BLOCK_SIZE - 1)  # its "\r" ends the first read, its "\n" starts the next
    long_line = (code + "@q@ ") * BLOCK_SIZE  # longer than a block
    lines = [(pad, "\r\n"), (long_line, "\n"), ("", "\r\n"), (code, "")]
    data = "".join(text + end for text, end in lines).encode("utf-8")
    assert data[BLOCK_SIZE - 1 : BLOCK_SIZE + 1] == b"\r\n"
    status, out = _pipe(["decode", "--codebook", str(root / "cb.tsv")], data)
    assert status == 0
    assert out == "".join(from_latin(text, cb) + end for text, end in lines).encode("utf-8")


@pytest.mark.parametrize(
    "bad, message",
    [
        ("Zz", "DecodeError: <stdin> line 2501: unknown code segment 'Zz' at offset 0"),
        ("B·x", "FormatError: <stdin> line 2501: stray lowercase letter 'x' at offset 2"),
        ("B@x", "FormatError: <stdin> line 2501: unterminated '@' run starting at offset 1"),
    ],
)
def test_decode_error_in_a_later_block_names_its_line(workspace, capsys, bad, message):
    root, cb, _ = workspace
    lines = _encoded_lines(cb, 3000)
    lines[2500] = bad
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    prefix = "".join(line + "\n" for line in lines[:2500]).encode("utf-8")
    assert len(prefix) > 2 * BLOCK_SIZE  # the bad line is in a later block
    status, out = _pipe(["decode", "--codebook", str(root / "cb.tsv")], data)
    assert status == 2
    assert out == "".join(from_latin(line, cb) + "\n" for line in lines[:2500]).encode("utf-8")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_decode_lenient_warning_in_a_later_block_names_its_line(workspace, capsys, caplog):
    root, cb, _ = workspace
    lines = _encoded_lines(cb, 3000)
    lines[2500] = "Zz" + lines[2500]
    data = "".join(line + "\r\n" for line in lines).encode("utf-8")
    status, out = _pipe(["decode", "--codebook", str(root / "cb.tsv"), "--mode", "lenient"], data)
    assert status == 0
    expected = [translit.decode(line, cb, "lenient").text + "\r\n" for line in lines]
    assert out == "".join(expected).encode("utf-8")
    assert [r.getMessage() for r in caplog.records] == [
        "<stdin> line 2501: offset 0: unknown code segment 'Zz'"
    ]
    assert capsys.readouterr().err.endswith("decode warnings: 1\n")


def test_decode_invalid_utf8_in_a_later_block(workspace, capsys):
    root, cb, _ = workspace
    lines = _encoded_lines(cb, 3000)
    prefix = "".join(line + "\n" for line in lines[:2500]).encode("utf-8")
    data = prefix + b"B\xc3(\n" + "".join(line + "\n" for line in lines[2501:]).encode("utf-8")
    status, out = _pipe(["decode", "--codebook", str(root / "cb.tsv")], data)
    assert status == 2
    assert out == "".join(from_latin(line, cb) + "\n" for line in lines[:2500]).encode("utf-8")
    offset = len(prefix) + 1
    assert capsys.readouterr().err == f"error: InputError: <stdin>: invalid UTF-8 at byte offset {offset}\n"


# Lines of codes, letters, '@' groups, '\r' and passthrough: valid and invalid.
_LINE = st.lists(st.sampled_from(["B", "C", "Aa", "Fk", "Zz", "x", "@", "@@", "\r", " ", "ཀ", "😀"]),
                 max_size=12).map("".join)


def _logged_pipe(argv: list[str], data: bytes) -> tuple[int, bytes, str, list[str]]:
    """`_pipe`, and also the stderr text and the messages logged."""
    logger = logging.getLogger("translitkit")
    records: list[str] = []
    handler = logging.Handler()
    handler.emit = lambda record: records.append(record.getMessage())
    logger.addHandler(handler)
    stderr = io.StringIO()
    try:
        with mock.patch.object(sys, "stderr", stderr):
            status, out = _pipe(argv, data)
    finally:
        logger.removeHandler(handler)
    return status, out, stderr.getvalue(), records


@settings(max_examples=80, deadline=None)
@given(lines=st.lists(_LINE, max_size=8), mode=st.sampled_from(["strict", "lenient"]))
def test_decode_cli_matches_per_line_scan(workspace, lines, mode):
    """The block decoder writes what scanning each line alone gives, up to the first error."""
    root, cb, _ = workspace
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    status, out, stderr, records = _logged_pipe(
        ["decode", "--codebook", str(root / "cb.tsv"), "--mode", mode], data
    )
    expected, warnings, error = [], [], None
    for n, line in enumerate(lines, 1):
        try:
            result = translit.scan_decode(line, cb, mode)
        except TranslitError as exc:
            error = f"error: {type(exc).__name__}: <stdin> line {n}: {exc}\n"
            break
        expected.append(result.text + "\n")
        warnings += [f"<stdin> line {n}: {w}" for w in result.warnings]
    assert out == "".join(expected).encode("utf-8")
    assert records == warnings
    if error:
        assert (status, stderr) == (2, error)
    else:
        assert status == 0


# The `decode` filter over every short string of an alphabet that spans the wire
# grammar, each string a line of stdin, against `scan_decode` of that line. A
# string ending in '\r' is a line that ends in CRLF. The codebook has codes of
# one, two, three and five letters, so both the kernel and the scan decode.
DECODE_ALPHABET = "ABab@x\r"
DECODE_CODES = ["A", "B", "Ab", "Bab", "Aabab"]
CLEAN_LENGTH = 5  # every string up to this length that decodes: one run per mode
RAISING_LENGTH = 3  # every string up to this length that raises: one run each


def _strings(length: int):
    for n in range(length + 1):
        yield from map("".join, itertools.product(DECODE_ALPHABET, repeat=n))


def _scan_line(s: str, cb, mode: str):
    """What the filter should write for the input line `s + "\\n"`: its text and end, and the warnings;
    or the error `scan_decode` raises."""
    line, end = (s[:-1], "\r\n") if s.endswith("\r") else (s, "\n")
    try:
        result = translit.scan_decode(line, cb, mode)
    except TranslitError as exc:
        return exc
    return result.text + end, result.warnings


@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_decode_cli_decodes_every_short_string_as_scan_decode_does(tmp_path, mode):
    cb = codebook.Codebook(
        [codebook.CodebookEntry(0x0F40 + i, c, i + 1, 0) for i, c in enumerate(DECODE_CODES)], "basic"
    )
    codebook.save_path(cb, str(tmp_path / "cb.tsv"))
    argv = ["decode", "--codebook", str(tmp_path / "cb.tsv"), "--mode", mode]
    clean, expected, warnings = [], [], []
    for s in _strings(CLEAN_LENGTH):
        scanned = _scan_line(s, cb, mode)
        if not isinstance(scanned, TranslitError):
            clean.append(s)
            expected.append(scanned[0])
            warnings += [f"<stdin> line {len(clean)}: {w}" for w in scanned[1]]
    status, out, _, records = _logged_pipe(argv, "".join(s + "\n" for s in clean).encode("utf-8"))
    assert (status, out) == (0, "".join(expected).encode("utf-8"))
    assert records == warnings
    raising = 0
    for s in _strings(RAISING_LENGTH):
        exc = _scan_line(s, cb, mode)
        if isinstance(exc, TranslitError):
            raising += 1
            status, out, stderr, _ = _logged_pipe(argv, (s + "\n").encode("utf-8"))
            assert (status, out, stderr) == (2, b"", f"error: {type(exc).__name__}: <stdin> line 1: {exc}\n"), s
    assert clean and raising and (warnings or mode == "strict")  # each half of the check ran


# Encode, then decode, every string up to ENCODE_LENGTH over an alphabet of both
# mapped characters, the reserved 'A', 'a' and '@', a space and '\r', under a
# codebook whose codes have one and two letters: through the library and, each
# string a line of stdin, through the `encode` and `decode` filters.
ENCODE_ALPHABET = "\u0f40\u0f41Aa@ \r"
ENCODE_LENGTH = 6  # 137,257 strings


def test_every_short_string_survives_encode_then_decode(tmp_path):
    entries = [codebook.CodebookEntry(0x0F40, "A", 1, 0), codebook.CodebookEntry(0x0F41, "Ba", 2, 0)]
    cb = codebook.Codebook(entries, "basic")
    strings = ["".join(t) for n in range(ENCODE_LENGTH + 1) for t in itertools.product(ENCODE_ALPHABET, repeat=n)]
    report = translit.verify_roundtrip(strings, cb)
    assert (report.total, report.failures) == (len(strings), 0)
    encode = translit.translator(cb)
    assert [s for s in strings if translit.scan_decode(encode(s), cb).text != s] == []
    codebook.save_path(cb, str(tmp_path / "cb.tsv"))
    data = "".join(s + "\n" for s in strings).encode("utf-8")
    status, encoded = _pipe(["encode", "--codebook", str(tmp_path / "cb.tsv")], data)
    assert status == 0
    assert _pipe(["decode", "--codebook", str(tmp_path / "cb.tsv")], encoded) == (0, data)


# --- detect and pipeline over several input blocks ---------------------------


def _lines_past_a_block(lines: list[str]) -> list[str]:
    """The corpus lines repeated until they fill more than two input blocks."""
    out: list[str] = []
    while sum(len(line.encode("utf-8")) + 1 for line in out) < 2 * BLOCK_SIZE + 100:
        out.extend(lines)
    return out


def test_detect_stdin_across_blocks_one_row_per_line(workspace):
    root, _, lines = workspace
    model = langid.load_model(str(root / "in.lid"))
    texts = _lines_past_a_block(lines)
    texts[3:3] = ["", "ab\rcd", "\rx"]
    texts[len(texts) // 2 : len(texts) // 2] = ["", "ཀཁ\rག"]
    data = ("\n".join(texts) + "\n").encode("utf-8")
    assert len(data) > 2 * BLOCK_SIZE
    code, out = _pipe(["detect", "--model", str(root / "in.lid")], data)
    assert code == 0
    preds = [langid.predict(text, model) for text in texts]
    expected = "".join(f"{p.label}\t{p.confidence:.6f}\n" for p in preds)
    assert out.decode("utf-8") == expected
    # the last line needs no terminator
    code, out = _pipe(["detect", "--model", str(root / "in.lid")], data[:-1])
    assert code == 0 and out.decode("utf-8") == expected


def test_pipeline_across_blocks_matches_per_line(workspace, capsys):
    root, _, lines = workspace
    texts = _lines_past_a_block(lines) + ["", "ab\rcd"]
    data = "".join(text + ("\r\n" if i % 5 == 0 else "\n") for i, text in enumerate(texts))
    code, out = _pipe(["pipeline", "--config", str(root / "pipeline.cfg"), "--trace"], data.encode("utf-8"))
    assert code == 0
    assert out.decode("utf-8") == data
    pl = Pipeline.from_config(load_pipeline_config(str(root / "pipeline.cfg")))
    one_by_one = [next(pl.batch([text])) for text in texts]
    assert [final for final, _ in one_by_one] == texts
    traces = [line for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert traces == [trace.to_json() for _, trace in one_by_one]
