import copy
import dataclasses
import io
import json
import math
import os
import random
import resource
import struct
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reference import (
    compact_model,
    dense_weights,
    ref_ngram_ids,
    ref_predict,
    ref_train,
    ref_train_features,
    v1_bytes,
)
import translitkit
from translitkit import langid, synth
from translitkit.cli import main
from translitkit.errors import ConfigError, FormatError, InputError, TrainingError
from translitkit.langid import (
    LangIdModel,
    TrainingParams,
    evaluate,
    load_model,
    predict,
    predict_many,
    read_labeled,
    save_model,
    train,
)

FAST = TrainingParams(epochs=3, min_count=1)
SMALL_BUCKETS = 1 << 12
SRC = os.path.dirname(os.path.dirname(os.path.abspath(translitkit.__file__)))


def toy_examples():
    # disjoint alphabets: linearly separable
    return [
        ("aaab abba baab", "aa"),
        ("abab bbbb aaaa", "aa"),
        ("xyzzy zyx xxyy", "xx"),
        ("zzxy yyzz xyxy", "xx"),
    ] * 5


@pytest.fixture(scope="module")
def toy_model():
    return train(toy_examples(), TrainingParams(epochs=1, min_count=1), hash_buckets=SMALL_BUCKETS)


def test_toy_training_accuracy_single_epoch(toy_model):
    for text, label in toy_examples():
        assert predict(text, toy_model).label == label


def test_training_deterministic():
    a = train(toy_examples(), FAST, hash_buckets=SMALL_BUCKETS)
    b = train(toy_examples(), FAST, hash_buckets=SMALL_BUCKETS)
    assert np.array_equal(dense_weights(a), dense_weights(b))
    assert np.array_equal(a.bias, b.bias)
    assert a.labels == b.labels


def test_single_label_rejected():
    with pytest.raises(TrainingError):
        train([("abc", "x"), ("abd", "x")], FAST)


def test_labels_outside_label_set_rejected():
    with pytest.raises(TrainingError):
        train(toy_examples(), FAST, labels=["aa"])


@pytest.mark.parametrize(
    "flags, params, message",
    [
        (["--log-level", "ERROR"], "hash_buckets = -1", "hash_buckets must be at least 1, got -1"),
        (["--log-level", "debug"], "preset = output\nhash_buckets = 0", "hash_buckets must be at least 1, got 0"),
        ([], "hash_buckets = 0", "hash_buckets must be at least 1, got 0"),
        ([], "ngram_min = 3\nngram_max = 2", "ngram_min must not exceed ngram_max, got 3 > 2"),
        ([], "ngram_min = 0", "ngram_min must be at least 1, got 0"),
        ([], "epochs = 0", "epochs must be at least 1, got 0"),
        ([], "min_count = 0", "min_count must be at least 1, got 0"),
        ([], "learning_rate = 0", "learning_rate must be positive and finite, got 0.0"),
        ([], "learning_rate = -0.5", "learning_rate must be positive and finite, got -0.5"),
        ([], "learning_rate = nan", "learning_rate must be positive and finite, got nan"),
    ],
)
def test_langid_train_rejects_bad_params_with_exit_2(tmp_path, capsys, flags, params, message):
    labeled = tmp_path / "train.txt"
    labeled.write_text("".join(f"__label__{tag}\t{text}\n" for text, tag in toy_examples()), encoding="utf-8")
    cfg = tmp_path / "params.cfg"
    cfg.write_text(params + "\n", encoding="utf-8")  # the checks run before any training
    out = tmp_path / "model.lid"
    # `flags` are global options: whatever the log level, stderr holds the one error line.
    assert main([*flags, "langid-train", str(labeled), "--params", str(cfg), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {cfg}: {message}\n"
    assert not out.exists()


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


# `translitkit` with `langid._features` replaced by an exit that no test expects.
_NO_FEATURES = (
    "import sys\n"
    "from translitkit import cli, langid\n"
    "langid._features = lambda *args: sys.exit('featurized')\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def test_langid_train_too_many_buckets_exits_2(tmp_path):
    labeled = tmp_path / "train.txt"
    labeled.write_text("".join(f"__label__{tag}\t{text}\n" for text, tag in toy_examples()), encoding="utf-8")
    cfg = tmp_path / "params.cfg"
    out = tmp_path / "model.lid"
    # 2**32 buckets pass the bound, but under a 2 GiB address space the model's
    # 16 GiB bucket index fails to allocate whatever the host's overcommit setting.
    # Both are refused before featurizing.
    for buckets, message in (
        (10**13, f"{cfg}: hash_buckets 10000000000000 is above 2**32, the most uint32 bucket ids can tell"),
        (1 << 32, "cannot allocate the bucket index of 4294967296 buckets"),
    ):
        cfg.write_text(f"hash_buckets = {buckets}\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", _NO_FEATURES, "langid-train", str(labeled),
             "--params", str(cfg), "-o", str(out)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": SRC},
            preexec_fn=_limit_address_space,
            timeout=120,
        )
        err = proc.stderr.decode("utf-8")
        assert proc.returncode == 2, err
        assert err == f"error: ConfigError: {message}\n"
        assert not out.exists()


def test_train_refuses_more_than_2_to_the_32_buckets_before_featurizing():
    with mock.patch.object(langid, "_features", side_effect=AssertionError("featurized")):
        with pytest.raises(TrainingError, match=r"^hash_buckets 4294967297 is above 2\*\*32"):
            train(toy_examples(), FAST, hash_buckets=(1 << 32) + 1)


def test_empty_text_is_other_uniform():
    examples = [("ཀཁག", "bo"), ("hello there", "other")] * 4
    model = train(examples, FAST, hash_buckets=SMALL_BUCKETS)
    pred = predict("", model)
    assert pred.label == "other"
    values = set(pred.distribution.values())
    assert len(values) == 1
    assert math.isclose(sum(pred.distribution.values()), 1.0, abs_tol=1e-9)


def test_distribution_sums_to_one(toy_model):
    rng = random.Random(5)
    for _ in range(50):
        text = "".join(rng.choice("abxyz ") for _ in range(rng.randint(1, 40)))
        pred = predict(text, toy_model)
        assert math.isclose(sum(pred.distribution.values()), 1.0, abs_tol=1e-9)
        assert pred.label == max(pred.distribution, key=pred.distribution.get)
        assert math.isclose(pred.confidence, pred.distribution[pred.label])


def test_argmax_invariant_under_positive_scaling(toy_model):
    scaled = compact_model(
        toy_model.labels,
        toy_model.ngram_range,
        toy_model.hash_buckets,
        dense_weights(toy_model) * 7.5,
        toy_model.bias * 7.5,
        toy_model.training_params,
    )
    rng = random.Random(11)
    for _ in range(80):
        text = "".join(rng.choice("abxyz ") for _ in range(rng.randint(1, 40)))
        assert predict(text, toy_model).label == predict(text, scaled).label


_ORACLE_RANGES = {
    "bo": [(0x0F00, 0x0FFF)],
    "mn": [(0x1800, 0x18AF)],
    "ug": [(0x0600, 0x06FF), (0xFB50, 0xFDFF), (0xFE70, 0xFEFF)],
    "zh": [(0x4E00, 0x9FFF)],
}


def range_oracle(text: str) -> str:
    """Exact for script-pure text: majority vote over hardcoded Unicode ranges."""
    votes: dict[str, int] = {}
    for ch in text:
        cp = ord(ch)
        for tag, ranges in _ORACLE_RANGES.items():
            if any(lo <= cp <= hi for lo, hi in ranges):
                break
        else:
            tag = "other"
        votes[tag] = votes.get(tag, 0) + 1
    return max(votes, key=votes.get) if votes else "other"


def test_script_pure_agrees_with_range_oracle():
    rng = random.Random(42)
    train_set = synth.labeled_lines(rng, 120)
    held_out = synth.labeled_lines(rng, 40)
    model = train(train_set, TrainingParams(epochs=2, min_count=1), hash_buckets=1 << 16)
    agree = sum(
        1 for text, _ in held_out if predict(text, model).label == range_oracle(text)
    )
    assert agree / len(held_out) >= 0.99


def test_script_pure_confident():
    rng = random.Random(43)
    model = train(synth.labeled_lines(rng, 100), TrainingParams(epochs=3, min_count=1),
                  hash_buckets=1 << 16)
    pred = predict(synth.script_line(rng, "bo"), model)
    assert pred.label == "bo"
    assert pred.confidence > 0.9


def test_evaluate_reports_per_label_and_macro(toy_model):
    report = evaluate(toy_examples(), toy_model)
    assert set(report["per_label"]) == {"aa", "xx"}
    assert report["macro_f1"] == 1.0


def test_save_load_roundtrip(tmp_path, toy_model):
    path = str(tmp_path / "model.lid")
    save_model(toy_model, path)
    loaded = load_model(path)
    assert loaded.labels == toy_model.labels
    assert loaded.ngram_range == toy_model.ngram_range
    assert loaded.hash_buckets == toy_model.hash_buckets
    assert loaded.training_params == toy_model.training_params
    assert np.array_equal(dense_weights(loaded), dense_weights(toy_model))
    assert np.array_equal(loaded.bias, toy_model.bias)
    for text in ["abab", "xyzzy", ""]:
        assert predict(text, loaded) == predict(text, toy_model)
    texts = ["abab", "", "xyzzy zyx", "q", "ab\rxy"] * 3
    assert predict_many(texts, loaded) == predict_many(texts, toy_model)


@pytest.mark.parametrize("layout", ["trained", "fortran", "big-endian"])
def test_saved_bytes_match_the_tobytes_writer(tmp_path, toy_model, layout):
    # The version-1 writer is retired: a file it wrote from a matrix in any layout loads as the
    # model, and so does a model built from that matrix. Both save the model's bytes.
    weights, bias = dense_weights(toy_model), toy_model.bias
    if layout == "fortran":
        weights = np.asfortranarray(weights)
    elif layout == "big-endian":
        weights, bias = weights.astype(">f8"), bias.astype(">f8")
    old = tmp_path / "v1.lid"
    old.write_bytes(v1_bytes(toy_model, weights, bias))
    built = compact_model(toy_model.labels, toy_model.ngram_range, toy_model.hash_buckets, weights, bias,
                          toy_model.training_params)
    save_model(toy_model, str(tmp_path / "model.lid"))
    for model in (load_model(str(old)), built):
        save_model(model, str(tmp_path / "again.lid"))
        assert (tmp_path / "again.lid").read_bytes() == (tmp_path / "model.lid").read_bytes()


def _edit_header(path: str, out, edit) -> str:
    """A copy of the model at `path`, written to `out`, whose JSON header `edit` changed in place."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, start = data[: len(langid._MAGIC)], len(langid._MAGIC) + 4
    (blob_len,) = struct.unpack("<I", data[len(magic) : start])
    header = json.loads(data[start : start + blob_len])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    out.write_bytes(magic + struct.pack("<I", len(blob)) + blob + data[start + blob_len :])
    return str(out)


def _both_versions(tmp_path, model: LangIdModel) -> list[str]:
    """`model` saved as version 2 and written by the version-1 writer."""
    paths = [str(tmp_path / "model.lid"), str(tmp_path / "v1.lid")]
    save_model(model, paths[0])
    (tmp_path / "v1.lid").write_bytes(v1_bytes(model))
    return paths


def test_load_accepts_headers_that_record_dim_and_window(tmp_path, toy_model):
    for path in _both_versions(tmp_path, toy_model):
        old = _edit_header(path, tmp_path / "old.lid", lambda h: h["training_params"].update(dim=150, window=7))
        old = load_model(old)
        assert old.training_params == toy_model.training_params
        texts = ["abab", "", "xyzzy zyx", "q"]
        assert predict_many(texts, old) == predict_many(texts, toy_model)
        # A learning rate written as a JSON integer is still a number.
        whole = _edit_header(path, tmp_path / "whole.lid", lambda h: h["training_params"].update(learning_rate=1))
        assert load_model(whole).training_params.learning_rate == 1
        odd = _edit_header(path, tmp_path / "odd.lid", lambda h: h["training_params"].update(dim=150, depth=2))
        with pytest.raises(FormatError, match="bad header"):
            load_model(odd)


@pytest.mark.parametrize(
    "key, value",
    [
        ("ngram_range", [3]), ("ngram_range", [1, 2, 3]), ("hash_buckets", float("inf")), ("training_params", []),
        ("ngram_range", [3, 1]), ("ngram_range", [0, 0]), ("ngram_range", [-2, -1]),
        # Values of the wrong JSON type, each of which once loaded.
        ("labels", "ax"), ("labels", [1, 2]), ("labels", ["aa", "aa"]), ("labels", ["", "xx"]),
        ("hash_buckets", SMALL_BUCKETS + 0.7), ("hash_buckets", float(SMALL_BUCKETS)),
        ("ngram_range", [1.0, 3]), ("ngram_range", [True, 3]),
        ("training_params", {"ngram_range": [1, 3], "learning_rate": "x"}),
        ("training_params", {"ngram_range": [1, 3], "epochs": 2.5}),
        ("training_params", {"ngram_range": [1, 3], "seed": True}),
        ("training_params", {"ngram_range": ["1", 3]}),
    ],
)
def test_detect_on_a_bad_header_value_exits_2(tmp_path, toy_model, capsys, key, value):
    for path in _both_versions(tmp_path, toy_model):
        bad = _edit_header(path, tmp_path / "bad.lid", lambda h: h.update({key: value}))
        assert main(["detect", "abab", "--model", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: FormatError: {bad}: bad header: ")
        assert captured.err.count("\n") == 1


def test_load_rejects_a_file_that_shrinks_while_read(tmp_path, toy_model, monkeypatch):
    good = tmp_path / "good.lid"
    save_model(toy_model, str(good))
    size = good.stat().st_size
    shrunk = tmp_path / "shrunk.lid"
    shrunk.write_bytes(good.read_bytes()[:-16])
    # fstat reports the size the file had before it shrank
    monkeypatch.setattr(langid.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
    with pytest.raises(FormatError, match="payload ends early"):
        load_model(str(shrunk))


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAMODEL" * 4)
    with pytest.raises(ConfigError, match="magic"):
        load_model(str(path))


# --- version 2: the kept rows alone --------------------------------------------


def _bits(preds: list) -> list:
    """Predictions with each float as its bits."""
    return [(p.label, p.confidence.hex(), [v.hex() for v in p.distribution.values()]) for p in preds]


def _dense_gather(model: LangIdModel, weights: np.ndarray) -> LangIdModel:
    """`model` gathering from the dense matrix `weights`, as a version-1 model did: its table
    is the matrix and its index the identity."""
    dense = copy.copy(model)
    dense.table, dense.index = weights, np.arange(model.hash_buckets)
    return dense


def test_a_version_1_file_and_its_resave_predict_bit_for_bit_as_the_dense_model(tmp_path, script_model):
    weights = dense_weights(script_model)
    old = tmp_path / "v1.lid"
    old.write_bytes(v1_bytes(script_model, weights))
    texts = _ROUTE_LINES + ["", "x", "ཀཁ", "ab\rxy", "\U0001F600" * 5]
    want = _bits(predict_many(texts, _dense_gather(script_model, weights)))
    loaded = load_model(str(old))
    save_model(loaded, str(tmp_path / "v2.lid"))
    assert (tmp_path / "v2.lid").read_bytes().startswith(langid._MAGIC)
    for model in (loaded, load_model(str(tmp_path / "v2.lid"))):
        assert _bits(predict_many(texts, model)) == want
        assert _bits([predict(text, model) for text in texts[-5:]]) == want[-5:]


def test_detect_prints_the_same_for_a_version_1_file_and_its_resave(tmp_path, script_model, capsys, monkeypatch):
    old = tmp_path / "v1.lid"
    old.write_bytes(v1_bytes(script_model))
    save_model(load_model(str(old)), str(tmp_path / "v2.lid"))
    data = ("\n".join(_ROUTE_LINES + ["", "x"]) + "\n").encode("utf-8")
    outs = []
    for path in (old, tmp_path / "v2.lid"):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(["detect", "--model", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == len(_ROUTE_LINES) + 2


def test_save_writes_the_kept_rows_alone(tmp_path, toy_model):
    path = tmp_path / "model.lid"
    save_model(toy_model, str(path))
    data = path.read_bytes()
    (blob_len,) = struct.unpack("<I", data[len(langid._MAGIC) : len(langid._MAGIC) + 4])
    start = len(langid._MAGIC) + 4 + blob_len
    dense, n = dense_weights(toy_model), len(toy_model.labels)
    kept = np.flatnonzero(dense.view(np.uint64).any(axis=1))
    k = kept.size
    assert 0 < k < SMALL_BUCKETS
    assert struct.unpack("<Q", data[start : start + 8]) == (k,)
    assert np.frombuffer(data, "<u4", k, start + 8).tolist() == kept.tolist()
    rows = np.frombuffer(data, "<f8", k * n, start + 8 + 4 * k).reshape(k, n)
    assert np.array_equal(rows, dense[kept])
    assert np.array_equal(np.frombuffer(data, "<f8", n, start + 8 + 4 * k + 8 * k * n), toy_model.bias)
    assert len(data) == start + 8 + 4 * k + 8 * (k + 1) * n


def test_a_row_is_kept_when_any_bit_of_it_is_set(tmp_path, toy_model):
    weights = dense_weights(toy_model)
    zero = np.flatnonzero(~weights.any(axis=1))[:2]
    weights[zero[0]] = -0.0
    weights[zero[1], 1] = -0.0
    model = compact_model(toy_model.labels, toy_model.ngram_range, SMALL_BUCKETS, weights, toy_model.bias,
                          toy_model.training_params)
    assert set(zero.tolist()) <= set(model.ids.tolist())
    assert model.ids.size == np.count_nonzero(dense_weights(toy_model).any(axis=1)) + 2
    save_model(model, str(tmp_path / "model.lid"))
    (tmp_path / "v1.lid").write_bytes(v1_bytes(model))
    for path in ("model.lid", "v1.lid"):
        loaded = load_model(str(tmp_path / path))
        assert np.array_equal(dense_weights(loaded).view(np.uint64), weights.view(np.uint64))
        save_model(loaded, str(tmp_path / "again.lid"))
        assert (tmp_path / "again.lid").read_bytes() == (tmp_path / "model.lid").read_bytes()


def _edit_rows(path: str, out, edit) -> str:
    """A copy of the version-2 model at `path`, written to `out`, whose row count, ids and
    the bytes after them ``edit(k, ids, rest)`` gave."""
    data = open(path, "rb").read()
    (blob_len,) = struct.unpack("<I", data[len(langid._MAGIC) : len(langid._MAGIC) + 4])
    start = len(langid._MAGIC) + 4 + blob_len
    (k,) = struct.unpack("<Q", data[start : start + 8])
    ids = np.frombuffer(data, "<u4", k, start + 8)
    k, ids, rest = edit(k, ids, data[start + 8 + 4 * k :])
    out.write_bytes(data[:start] + struct.pack("<Q", k) + np.asarray(ids, "<u4").tobytes() + rest)
    return str(out)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda k, ids, rest: (SMALL_BUCKETS + 1, ids, rest), f"row count {SMALL_BUCKETS + 1} is above hash_buckets"),
        (lambda k, ids, rest: (k, ids[::-1], rest), "bucket ids are not strictly increasing"),
        (lambda k, ids, rest: (k, np.append(ids[:1], ids[:-1]), rest), "bucket ids are not strictly increasing"),
        (lambda k, ids, rest: (k, np.append(ids[:-1], SMALL_BUCKETS), rest), f"below hash_buckets {SMALL_BUCKETS}"),
        (lambda k, ids, rest: (k, ids, rest[:-8]), "payload is"),
        (lambda k, ids, rest: (k, ids, rest + bytes(8)), "payload is"),
        (lambda k, ids, rest: (k - 1, ids[:-1], rest), "payload is"),
        (lambda k, ids, rest: (k + 1, np.append(ids, SMALL_BUCKETS - 1), rest), "payload is"),
    ],
    ids=["count-above-buckets", "descending", "repeated", "id-at-buckets", "short", "long", "count-low", "count-high"],
)
def test_load_rejects_bad_rows_naming_the_file(tmp_path, toy_model, capsys, edit, message):
    good = tmp_path / "good.lid"
    save_model(toy_model, str(good))
    bad = _edit_rows(str(good), tmp_path / "bad.lid", edit)
    with pytest.raises(FormatError, match=f"^{bad}: .*{message}"):
        load_model(bad)
    assert main(["detect", "abab", "--model", bad]) == 2
    assert capsys.readouterr().err.startswith(f"error: FormatError: {bad}: ")


def test_load_rejects_more_buckets_than_uint32_ids_can_tell(tmp_path, toy_model):
    good = tmp_path / "good.lid"
    save_model(toy_model, str(good))
    edited = _edit_header(str(good), tmp_path / "edited.lid", lambda h: h.update(hash_buckets=(1 << 32) + 1))
    with pytest.raises(FormatError, match=f"^{edited}: bad header: hash_buckets {(1 << 32) + 1} is above 2\\*\\*32"):
        load_model(edited)


def _corrupt(blob: bytes, kind: str) -> bytes:
    if kind == "truncated":
        return blob[:-100]
    if kind == "short-length-prefix":
        return blob[:9]
    if kind == "missing-key":
        return blob.replace(b'"labels"', b'"lebals"', 1)
    if kind == "bad-json":
        return blob.replace(b'{"labels"', b'["labels"', 1)
    return blob + bytes(8)  # trailing bytes


@pytest.mark.parametrize(
    "kind", ["truncated", "short-length-prefix", "missing-key", "bad-json", "trailing"]
)
def test_detect_on_corrupt_model_exits_2(tmp_path, toy_model, capsys, kind):
    good = tmp_path / "good.lid"
    save_model(toy_model, str(good))
    bad = tmp_path / f"{kind}.lid"
    bad.write_bytes(_corrupt(good.read_bytes(), kind))
    with pytest.raises(FormatError):
        load_model(str(bad))
    assert main(["detect", "x", "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError") and str(bad) in err


def test_load_rejects_a_file_cut_inside_its_row_count(tmp_path, toy_model):
    good = tmp_path / "good.lid"
    save_model(toy_model, str(good))
    data = good.read_bytes()
    start = len(b"TKLID\x02\n") + 4  # the magic and the header's size
    (header_size,) = struct.unpack("<I", data[start - 4 : start])
    bad = tmp_path / "cut.lid"
    bad.write_bytes(data[: start + header_size + 3])
    with pytest.raises(FormatError) as info:
        load_model(str(bad))
    assert str(info.value) == f"{bad}: truncated row count"


def test_read_labeled(tmp_path):
    path = tmp_path / "train.txt"
    path.write_text("__label__bo\tཀཁ\n__label__other\thello world\n", encoding="utf-8")
    assert read_labeled(str(path)) == [("ཀཁ", "bo"), ("hello world", "other")]
    bad = tmp_path / "bad.txt"
    bad.write_text("no label here\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 1"):
        read_labeled(str(bad))


def test_read_labeled_lines_end_only_at_newline(tmp_path):
    path = tmp_path / "train.txt"
    path.write_bytes("__label__bo\tཀཁ\rག\n__label__other\thi\r\n\n__label__mn\tᠠ".encode("utf-8"))
    assert read_labeled(str(path)) == [("ཀཁ\rག", "bo"), ("hi", "other"), ("ᠠ", "mn")]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"__label__bo\tab\n__label__bo\t\xff\n")
    with pytest.raises(InputError, match="invalid UTF-8 at byte offset 27"):
        read_labeled(str(bad))



def test_langid_train_rejects_an_empty_tag_with_exit_2(tmp_path, capsys):
    labeled = tmp_path / "train.txt"
    labeled.write_text("__label__en\thello world\n__label__\thello there\n", encoding="utf-8")
    out = tmp_path / "model.lid"
    assert main(["langid-train", str(labeled), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: FormatError: {labeled} line 2: empty tag in '__label__<tag>\\t<text>'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("labels", [None, ["", "aa", "xx"], ["aa", "xx", "aa"]])
def test_train_rejects_a_label_set_that_load_model_would(labels):
    examples = toy_examples() + ([("hello there", "")] if labels is None else [])
    with pytest.raises(TrainingError, match="labels must be a list of distinct non-empty strings"):
        langid.train(examples, TrainingParams(epochs=1, min_count=1), labels, hash_buckets=256)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("bias", np.zeros(3), r"shapes \(\d+, 2\) and \(3,\) do not fit \d+ ids x 2 labels"),
        ("labels", ["aa", "aa"], "labels must be a list of distinct non-empty strings"),
        ("labels", ["", "xx"], "labels must be a list of distinct non-empty strings"),
        ("ngram_range", (0, 2), "ngram_min must be at least 1, got 0"),
        ("ngram_range", (3, 2), "ngram_min must not exceed ngram_max, got 3 > 2"),
        ("hash_buckets", 0, "hash_buckets must be at least 1, got 0"),
    ],
)
def test_the_constructor_refuses_what_load_model_refuses(tmp_path, toy_model, field, value, message):
    fields = {
        "labels": toy_model.labels, "ngram_range": toy_model.ngram_range, "hash_buckets": toy_model.hash_buckets,
        "ids": toy_model.ids, "rows": toy_model.table[1:], "bias": toy_model.bias,
        "training_params": toy_model.training_params,
    }
    if field == "hash_buckets":  # no row may sit at or above the bucket count
        fields.update(ids=fields["ids"][:0], rows=fields["rows"][:0])
    with pytest.raises(ConfigError, match=f"^{message}"):
        LangIdModel(**{**fields, field: value})
    if field != "bias":  # a header field: its file fails to load with the same message
        path = tmp_path / "model.lid"
        save_model(toy_model, str(path))
        edited = _edit_header(str(path), tmp_path / "edited.lid", lambda h: h.update({field: value}))
        with pytest.raises(FormatError, match=f"^{edited}: bad header: {message}"):
            load_model(edited)

def test_presets_match_recorded_hyperparameters():
    inp = TrainingParams.input_defaults()
    out = TrainingParams.output_defaults()
    assert (inp.learning_rate, inp.epochs, inp.min_count) == (0.1, 25, 5)
    assert (out.learning_rate, out.epochs, out.min_count) == (0.05, 30, 3)
    assert inp.ngram_range == (1, 3)
    assert out.ngram_range == (2, 4)


# --- the vectorized featurizer and the batched predictor ---------------------

# Non-BMP characters, lone surrogates and line terminators made common.
_GRAM_CHARS = st.one_of(
    st.characters(),
    st.characters(categories=["Cs"]),
    st.sampled_from("\n\r\U0001F600\U00010000\U0010FFFFaཀ"),
)
_BUCKETS = st.one_of(st.sampled_from([1, 2, 3, 1000, 65537, 1 << 20]), st.integers(1, 1 << 62))


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(st.text(_GRAM_CHARS, max_size=12), max_size=6),
    lo=st.integers(1, 6),
    span=st.integers(0, 5),
    buckets=_BUCKETS,
)
def test_featurize_matches_scalar_hash(texts, lo, span, buckets):
    hi = min(lo + span, 6)
    owner, ids, start, size = langid._featurize(texts, lo, hi, buckets)
    assert list(zip(owner.tolist(), ids.tolist())) == ref_ngram_ids(texts, lo, hi, buckets)
    offsets = [sum(map(len, texts[:t])) for t in range(len(texts))]
    assert list(zip(start.tolist(), size.tolist())) == [
        (offsets[t] + i, n) for n in range(lo, hi + 1) for t, text in enumerate(texts) for i in range(len(text) - n + 1)
    ]


@pytest.fixture(scope="module")
def script_model():
    rng = random.Random(44)
    return train(
        synth.labeled_lines(rng, 60), TrainingParams(epochs=2, min_count=1), hash_buckets=1 << 12
    )


_ROUTE_LINES = synth.mixed_lines(random.Random(45), 30)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.text(_GRAM_CHARS, max_size=30), st.sampled_from(_ROUTE_LINES)), max_size=8))
def test_predict_many_matches_scalar_reference(script_model, texts):
    preds = predict_many(texts, script_model)
    assert len(preds) == len(texts)
    for text, pred in zip(texts, preds):
        label, dist = ref_predict(text, script_model)
        assert pred.label == label
        assert pred.confidence == pred.distribution[label]
        assert list(pred.distribution) == list(dist)
        for lab, p in dist.items():
            assert abs(pred.distribution[lab] - p) <= 1e-12


def test_predict_is_a_batch_of_one(script_model):
    texts = synth.mixed_lines(random.Random(46), 40) + ["", "x"]
    assert predict_many(texts, script_model) == [predict(text, script_model) for text in texts]
    assert predict_many([], script_model) == []


@pytest.fixture(scope="module")
def wide_model():
    """A model of the output preset's n-grams, 2 to 4, so that lo > 1."""
    rng = random.Random(48)
    params = TrainingParams(ngram_range=(2, 4), epochs=1, min_count=1)
    return train(synth.labeled_lines(rng, 30), params, hash_buckets=1 << 12)


def _in_pieces(texts: list[str], model: LangIdModel, piece: int) -> list:
    with mock.patch.object(langid, "_PIECE", piece):
        return _bits(predict_many(texts, model))


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(st.one_of(st.text(_GRAM_CHARS, max_size=30), st.sampled_from(_ROUTE_LINES)), max_size=12),
    wide=st.booleans(),
)
def test_predict_many_in_pieces_of_any_size_matches_bit_for_bit(script_model, wide_model, texts, wide):
    """Pieces of 1, 7 and 64 windows give the sums of a single piece: empty texts, texts
    shorter than lo, astral characters and lone surrogates, texts cut or not."""
    model = wide_model if wide else script_model
    want = _bits(predict_many(texts, model))
    for piece in (1, 7, 64):
        assert _in_pieces(texts, model, piece) == want


def test_a_text_of_thousands_of_characters_in_pieces_matches_bit_for_bit(script_model, wide_model):
    text = " ".join(_ROUTE_LINES * 2)
    assert len(text) > 2000
    for model in (script_model, wide_model):
        texts = ["", "x", text, text[:100] + "\U0001F600\ud800", text]
        want = _bits(predict_many(texts, model))
        for piece in (1, 7, 64):
            assert _in_pieces(texts, model, piece) == want


def _close_to_reference(pred, text: str, model: LangIdModel) -> None:
    label, dist = ref_predict(text, model)
    assert pred.label == label
    assert list(pred.distribution) == list(dist)
    for lab, p in dist.items():
        assert abs(pred.distribution[lab] - p) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    texts=st.lists(st.text(_GRAM_CHARS, min_size=65, max_size=400), min_size=1, max_size=3),
    wide=st.booleans(),
)
def test_texts_longer_than_a_piece_match_the_scalar_reference(script_model, wide_model, texts, wide):
    model = wide_model if wide else script_model
    with mock.patch.object(langid, "_PIECE", 64):
        preds = predict_many(texts, model)
    for text, pred in zip(texts, preds):
        _close_to_reference(pred, text, model)


def test_a_text_longer_than_a_piece_matches_the_scalar_reference(script_model):
    text = " ".join(synth.mixed_lines(random.Random(47), 600))
    assert len(text) > langid._PIECE
    _close_to_reference(predict(text, script_model), text, script_model)


def test_an_ngram_range_past_the_longest_text_reads_as_the_range_up_to_it(script_model, wide_model):
    """`_features` and `predict_many` under ``(lo, 10**6)`` equal ``(lo, longest)`` bit for bit:
    no window is longer than the longest text."""
    texts = ["", "x", *_ROUTE_LINES[:8], "ab\U0001F600" * 70]
    longest = max(map(len, texts))
    assert longest > langid._PIECE // longest  # the longest text goes in pieces of one n
    for lo in (1, 2, 5):
        wide, exact = (langid._features(texts, lo, hi, 1, 1 << 12) for hi in (10**6, longest))
        assert [(i.tolist(), c.tolist()) for i, c in wide] == [(i.tolist(), c.tolist()) for i, c in exact]
        for model in (script_model, wide_model):
            got, want = (
                predict_many(texts, LangIdModel(model.labels, (lo, hi), model.hash_buckets, model.ids,
                                                model.table[1:], model.bias, model.training_params))
                for hi in (10**6, longest)
            )
            assert _bits(got) == _bits(want)


def test_langid_train_with_an_ngram_max_past_every_text_exits_0(tmp_path):
    labeled = tmp_path / "train.txt"
    labeled.write_text("".join(f"__label__{tag}\t{text}\n" for text, tag in toy_examples()), encoding="utf-8")
    longest = max(len(text) for text, _ in toy_examples())
    for ngram_max in (10_000_000, longest):
        cfg = tmp_path / f"{ngram_max}.cfg"
        cfg.write_text(f"min_count = 1\nngram_max = {ngram_max}\n", encoding="utf-8")
        assert main(["langid-train", str(labeled), "--params", str(cfg), "-o", str(tmp_path / f"{ngram_max}.lid")]) == 0
    wide, exact = load_model(str(tmp_path / "10000000.lid")), load_model(str(tmp_path / f"{longest}.lid"))
    assert wide.ngram_range == (1, 10_000_000)  # the header keeps the range as given
    for a, b in ((wide.ids, exact.ids), (wide.table, exact.table), (wide.bias, exact.bias)):
        assert a.tobytes() == b.tobytes()


# A small alphabet next to the wide one, so that grams repeat and min_count bites.
_TRAIN_CHARS = st.one_of(_GRAM_CHARS, st.sampled_from("ab\x00\U0001F600\ud800"))


@settings(max_examples=200, deadline=None)
@given(
    examples=st.lists(
        st.tuples(st.text(_TRAIN_CHARS, max_size=12), st.sampled_from(["x", "y"])), min_size=2, max_size=8
    ).filter(lambda ex: len({lab for _, lab in ex}) == 2),
    lo=st.integers(1, 6),
    span=st.integers(0, 5),
    min_count=st.integers(1, 5),
    buckets=st.one_of(st.sampled_from([1, 2, 3, 1000, 65537]), st.integers(1, 1 << 16)),
)
def test_train_features_match_the_counter_oracle(tmp_path_factory, examples, lo, span, min_count, buckets):
    hi = min(lo + span, 6)
    texts = [text for text, _ in examples]
    got = langid._features(texts, lo, hi, min_count, buckets)
    want = ref_train_features(texts, lo, hi, min_count, buckets)
    assert [(idx.tolist(), cnt.tolist()) for idx, cnt in got] == [
        (idx.tolist(), cnt.tolist()) for idx, cnt in want
    ]
    params = TrainingParams(epochs=2, ngram_range=(lo, hi), min_count=min_count)
    out = tmp_path_factory.mktemp("lid")
    save_model(train(examples, params, hash_buckets=buckets), str(out / "got.lid"))
    with mock.patch.object(langid, "_features", ref_train_features):
        save_model(train(examples, params, hash_buckets=buckets), str(out / "want.lid"))
    assert (out / "got.lid").read_bytes() == (out / "want.lid").read_bytes()


@settings(max_examples=100, deadline=None)
@given(
    examples=st.lists(
        st.tuples(st.text(_TRAIN_CHARS, max_size=12), st.sampled_from(["x", "y", "z"])), min_size=2, max_size=10
    ).filter(lambda ex: len({lab for _, lab in ex}) >= 2),
    preset=st.sampled_from([TrainingParams.input_defaults(), TrainingParams.output_defaults()]),
    epochs=st.integers(1, 3),
    min_count=st.integers(1, 3),
    buckets=st.integers(1, 64),
)
# Examples that hold no kept n-gram, only the bias: an empty text, and one whose grams
# all fall under min_count ("qz" occurs once; "abab" twice).
@example(examples=[("", "x"), ("ab", "y"), ("ab", "x")], preset=TrainingParams.input_defaults(),
         epochs=2, min_count=1, buckets=64)
@example(examples=[("", "x"), ("abc", "y"), ("abc", "x")], preset=TrainingParams.output_defaults(),
         epochs=2, min_count=1, buckets=64)
@example(examples=[("abab", "x"), ("qz", "y"), ("abab", "y")], preset=TrainingParams.input_defaults(),
         epochs=3, min_count=2, buckets=64)
@example(examples=[("abab", "x"), ("qz", "y"), ("abab", "y")], preset=TrainingParams.output_defaults(),
         epochs=3, min_count=2, buckets=64)
def test_train_matches_the_sgd_oracle(tmp_path_factory, examples, preset, epochs, min_count, buckets):
    params = dataclasses.replace(preset, epochs=epochs, min_count=min_count)
    labels, weights, bias = ref_train(examples, params, buckets)
    out = tmp_path_factory.mktemp("sgd")
    save_model(train(examples, params, hash_buckets=buckets), str(out / "got.lid"))
    save_model(compact_model(labels, params.ngram_range, buckets, weights, bias, params), str(out / "want.lid"))
    assert (out / "got.lid").read_bytes() == (out / "want.lid").read_bytes()
