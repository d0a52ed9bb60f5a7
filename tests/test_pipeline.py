import json
import random
import shlex
import sys

import numpy as np
import pytest

from translitkit import synth, translit
from translitkit.codebook import build_basic
from translitkit.errors import StageError
from translitkit.langid import LangIdModel, TrainingParams, train
from translitkit.pipeline import LOW_RESOURCE_TAGS, Pipeline, PipelineConfig, PipelineTrace
from translitkit.translit import to_latin

BUCKETS = 1 << 16
PARAMS_IN = TrainingParams(epochs=3, min_count=1)
PARAMS_OUT = TrainingParams(epochs=3, min_count=1, ngram_range=(2, 4))
LABELS = ("bo", "mn", "ug", "zh", "other")


def make_codebook():
    chars = sorted({ord(c) for tag in ("bo", "mn", "ug") for c in synth.SCRIPT_CHARS[tag]})
    rng = random.Random(3)
    rng.shuffle(chars)  # synthetic frequency order
    return build_basic(chars)


@pytest.fixture(scope="module")
def models():
    cb = make_codebook()
    rng = random.Random(17)
    raw = synth.labeled_lines(rng, 150, LABELS)
    input_model = train(raw, PARAMS_IN, hash_buckets=BUCKETS)
    encoded = [
        (to_latin(text, cb) if tag in ("bo", "mn", "ug") else text, tag) for text, tag in raw
    ]
    output_model = train(encoded, PARAMS_OUT, hash_buckets=BUCKETS)
    return cb, input_model, output_model


@pytest.fixture(scope="module")
def identity_pipeline(models):
    cb, input_model, output_model = models
    return Pipeline(cb, input_model, output_model)


def test_identity_roundtrip_tibetan(identity_pipeline, rng):
    text = synth.script_line(rng, "bo")
    final, trace = identity_pipeline.process(text)
    assert final == text
    assert trace.encoded and trace.restored
    assert trace.input_label == "bo"
    assert trace.output_label in ("bo", "mn", "ug")
    assert trace.model_stage_output == to_latin(text, identity_pipeline.codebook)


def test_english_passthrough(identity_pipeline, rng):
    text = synth.script_line(rng, "other")
    final, trace = identity_pipeline.process(text)
    assert final == text
    assert not trace.encoded and not trace.restored
    assert trace.input_label == "other"


def test_chinese_passthrough_without_pinyin(identity_pipeline, rng):
    text = synth.script_line(rng, "zh")
    final, trace = identity_pipeline.process(text)
    assert final == text
    assert not trace.encoded


def test_empty_line(identity_pipeline):
    final, trace = identity_pipeline.process("")
    assert final == ""
    assert trace.input_label == "other"
    assert not trace.encoded and not trace.restored


def test_below_threshold_fails_open(models, rng):
    cb, input_model, output_model = models
    pl = Pipeline(cb, input_model, output_model, confidence_threshold=1.0)
    text = synth.script_line(rng, "bo")
    final, trace = pl.process(text)
    assert final == text
    assert not trace.encoded and not trace.restored


UPPERCASE_RUNS = (
    "import sys,re; t=sys.stdin.read(); "
    "print(re.sub(r'@((?:[^@]|@@)*)@', lambda m: '@'+m.group(1).upper()+'@', t), end='')"
)


def test_external_stage_touches_only_preserved_runs(models, rng):
    cb, input_model, output_model = models
    cmd = f"{shlex.quote(sys.executable)} -c {shlex.quote(UPPERCASE_RUNS)}"
    pl = Pipeline(cb, input_model, output_model, model_stage="external", model_command=cmd)
    text = synth.script_line(rng, "bo") + " latin tail"
    final, trace = pl.process(text)
    assert trace.encoded and trace.restored
    # oracle: apply the same edit to the source text directly
    expected = text.replace(" latin tail", " LATIN TAIL")
    assert final == expected


def test_external_stage_failure_raises(models):
    cb, input_model, output_model = models
    pl = Pipeline(cb, input_model, output_model, model_stage="external", model_command="false")
    with pytest.raises(StageError):
        pl.process("ཀཁག")


def test_batch_preserves_order_and_isolates_failures(models, rng):
    cb, input_model, output_model = models
    # stage output "Q" decodes to nothing known -> strict restore fails for bo lines
    cmd = f"{shlex.quote(sys.executable)} -c \"import sys; sys.stdin.read(); print('Q', end='')\""
    pl = Pipeline(cb, input_model, output_model, model_stage="external", model_command=cmd)
    good = synth.script_line(rng, "other")
    bad = synth.script_line(rng, "bo")
    results = list(pl.batch([good, bad, good]))
    assert len(results) == 3
    assert results[0][1].error is None
    assert results[2][1].error is None
    # the middle line is flagged only if "Q" was routed to restoration;
    # either way the stream continued and order held
    assert results[1][0] in ("Q", bad)


def test_batch_isolates_a_line_that_fails_to_restore(models, rng):
    cb, input_model, output_model = models
    lines = [synth.script_line(rng, tag) for tag in ("bo", "mn", "other", "ug", "bo", "mn")]
    bad = to_latin(lines[3], cb)
    unknown = next(c for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ" if c not in cb.code_to_char)
    # Echo every line but one, which gets an unknown code appended.
    script = f"import sys; t = sys.stdin.read(); print(t + {unknown!r} if t == {bad!r} else t, end='')"
    cmd = f"{shlex.quote(sys.executable)} -c {shlex.quote(script)}"
    pl = Pipeline(cb, input_model, output_model, model_stage="external", model_command=cmd)
    results = list(pl.batch(lines))
    finals = [final for final, _ in results]
    traces = [trace for _, trace in results]
    assert traces[3].output_label in LOW_RESOURCE_TAGS and traces[3].output_confidence >= 0.5
    assert traces[3].error.startswith("DecodeError: ")
    assert not traces[3].restored
    assert finals[3] == traces[3].model_stage_output == bad + unknown
    assert finals[:3] + finals[4:] == lines[:3] + lines[4:]
    assert [trace.restored for trace in traces] == [True, True, False, False, True, True]
    assert all(trace.error is None for i, trace in enumerate(traces) if i != 3)


@pytest.mark.parametrize("mode", ["strict", "lenient"])
@pytest.mark.parametrize("garble, strict_error, lenient_error", [
    ("Z", "DecodeError: unknown code segment 'Z'", None),  # an unknown code, which lenient mode passes through
    (" q", "FormatError: stray lowercase letter 'q'", "FormatError: stray lowercase letter 'q'"),
    ("@q", "FormatError: unterminated '@' run", "FormatError: unterminated '@' run"),
], ids=["unknown-code", "stray-lowercase", "unterminated-run"])
def test_batch_scans_only_the_garbled_stage_output(
    models, rng, monkeypatch, mode, garble, strict_error, lenient_error
):
    cb, input_model, output_model = models
    assert "Z" not in cb.code_to_char  # the default profile never uses it
    lines = [synth.script_line(rng, tag) for tag in ("bo", "mn", "ug") * 10]
    bad = to_latin(lines[13], cb)
    pl = Pipeline(cb, input_model, output_model, decode_mode=mode)
    # An identity stage but for one line, which comes back with `garble` after it.
    monkeypatch.setattr(pl, "_run_stage", lambda text: text + garble if text == bad else text)
    scans = []
    real = translit.scan_decode
    monkeypatch.setattr(translit, "scan_decode", lambda enc, cb, mode: scans.append(enc) or real(enc, cb, mode))
    results = list(pl.batch(lines))
    assert scans == [bad + garble]
    final, trace = results[13]
    assert trace.output_label in LOW_RESOURCE_TAGS and trace.output_confidence >= 0.5  # so it is restored
    error = strict_error if mode == "strict" else lenient_error
    if error:
        assert trace.error.startswith(error) and not trace.restored
        assert final == bad + garble
    else:
        assert trace.error is None and trace.restored
        assert final == lines[13] + garble
        assert f"offset {len(bad)}: unknown code segment 'Z'" in trace.warnings
    for i, (final, trace) in enumerate(results):
        if i != 13:
            assert final == lines[i] and trace.restored and trace.error is None
            assert all(w.startswith("classifier disagreement") for w in trace.warnings)


@pytest.mark.parametrize(
    "settings",
    [
        {"confidence_threshold": 7},
        {"confidence_threshold": -0.1},
        {"model_stage": "banana"},
        {"model_stage": "external"},
        {"decode_mode": "loose"},
    ],
)
def test_pipeline_checks_its_own_settings(models, settings):
    cb, input_model, output_model = models
    with pytest.raises(ValueError):
        Pipeline(cb, input_model, output_model, **settings)


def test_batch_identity_mixed(identity_pipeline, rng):
    lines = synth.mixed_lines(rng, 60)
    results = list(identity_pipeline.batch(lines))
    assert [final for final, _ in results] == lines
    assert all(trace.error is None for _, trace in results)


def test_trace_json_roundtrips(identity_pipeline, rng):
    _, trace = identity_pipeline.process(synth.script_line(rng, "mn"))
    record = json.loads(trace.to_json())
    assert record["encoded"] is True
    assert record["restored"] is True
    assert "input_label" in record and "output_label" in record


def test_restored_implies_low_resource(identity_pipeline, rng):
    for tag in ("bo", "mn", "ug", "zh", "other"):
        for _ in range(5):
            _, trace = identity_pipeline.process(synth.script_line(rng, tag))
            if trace.restored:
                assert trace.output_label in LOW_RESOURCE_TAGS or (
                    trace.encoded and trace.input_label in LOW_RESOURCE_TAGS
                )


def _always_zh() -> LangIdModel:
    """An output classifier that labels every text `zh` with confidence near 1."""
    bias = np.array([10.0 if label == "zh" else 0.0 for label in LABELS])
    return LangIdModel(list(LABELS), (1, 2), 16, [], np.zeros((0, len(LABELS))), bias, PARAMS_OUT)


@pytest.mark.parametrize("stage", ["identity", "external"])
def test_an_echoed_line_is_restored_whatever_the_output_classifier_reads(models, rng, stage):
    cb, input_model, _ = models
    cat = f"{shlex.quote(sys.executable)} -c \"import sys; sys.stdout.write(sys.stdin.read())\""
    pl = Pipeline(cb, input_model, _always_zh(), model_stage=stage, model_command=cat)
    lines = [synth.script_line(rng, tag) for tag in ("bo", "mn", "ug") for _ in range(4)]
    results = list(pl.batch(lines))
    encoded = [(line, final, trace) for line, (final, trace) in zip(lines, results) if trace.encoded]
    assert len(encoded) == len(lines)
    for line, final, trace in encoded:
        assert trace.output_label == "zh"
        assert trace.restored and final == line
        assert f"classifier disagreement: input {trace.input_label}, output zh" in trace.warnings


def test_pinyin_stage_marked_not_restorable(models, rng):
    cb, input_model, output_model = models
    transform = {cp: f"p{i % 9}" for i, cp in enumerate(ord(c) for c in synth.CJK_CHARS)}
    pl = Pipeline(cb, input_model, output_model, pinyin_transform=transform)
    text = synth.script_line(rng, "zh")
    final, trace = pl.process(text)
    assert trace.encoded
    assert not trace.restored
    assert any("not restorable" in w for w in trace.warnings)
    assert final != text  # lossy by design


def test_from_config_loads_the_pinyin_transform(tmp_path, models):
    import translitkit.codebook as codebook_mod
    from translitkit.langid import save_model

    cb, input_model, output_model = models
    codebook_mod.save_path(cb, str(tmp_path / "cb.tsv"))
    save_model(input_model, str(tmp_path / "in.lid"))
    save_model(output_model, str(tmp_path / "out.lid"))
    transform = {cp: f"p{i % 9}" for i, cp in enumerate(ord(c) for c in synth.CJK_CHARS)}
    (tmp_path / "pinyin.tsv").write_text(
        "".join(f"{cp:04X}\t{s}\n" for cp, s in transform.items()), encoding="utf-8"
    )
    cfg = PipelineConfig(str(tmp_path / "cb.tsv"), str(tmp_path / "in.lid"), str(tmp_path / "out.lid"),
                         pinyin_transform_path=str(tmp_path / "pinyin.tsv"))
    pl = Pipeline.from_config(cfg)
    assert pl.pinyin_transform == transform
    text = synth.script_line(random.Random(5), "zh")
    assert pl.process(text) == Pipeline(cb, input_model, output_model, pinyin_transform=transform).process(text)


def test_a_stage_reply_in_invalid_utf8_is_its_line_s_trace_error(models, rng):
    cb, input_model, output_model = models
    cmd = f"{shlex.quote(sys.executable)} -c \"import sys; sys.stdin.read(); sys.stdout.buffer.write(b'ab\\xff')\""
    pl = Pipeline(cb, input_model, output_model, model_stage="external", model_command=cmd)
    text = synth.script_line(rng, "other")
    (final, trace), = pl.batch([text])
    assert final == text
    assert trace.error == "StageError: model command produced invalid UTF-8 at byte 2"


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig("cb", "in", "out", confidence_threshold=1.5)
    with pytest.raises(ValueError):
        PipelineConfig("cb", "in", "out", model_stage="external")
    with pytest.raises(ValueError):
        PipelineConfig("cb", "in", "out", model_stage="banana")
    with pytest.raises(ValueError):
        PipelineConfig("cb", "in", "out", decode_mode="loose")


def test_from_config_loads_everything(tmp_path, models):
    import translitkit.codebook as codebook_mod
    from translitkit.langid import save_model

    cb, input_model, output_model = models
    codebook_mod.save_path(cb, str(tmp_path / "cb.tsv"))
    save_model(input_model, str(tmp_path / "in.lid"))
    save_model(output_model, str(tmp_path / "out.lid"))
    cfg = PipelineConfig(
        codebook_path=str(tmp_path / "cb.tsv"),
        input_model_path=str(tmp_path / "in.lid"),
        output_model_path=str(tmp_path / "out.lid"),
    )
    pl = Pipeline.from_config(cfg)
    text = "ཀཁགངཅཆཇཉཏཐདན"
    final, trace = pl.process(text)
    assert final == text


def _settings(obj) -> dict:
    """The settings of a Pipeline or PipelineConfig by name."""
    import dataclasses

    from translitkit.pipeline import PipelineSettings

    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(PipelineSettings)}


def test_a_config_of_only_the_paths_loads_the_default_settings(tmp_path, models):
    import translitkit.codebook as codebook_mod
    from translitkit.config import load_pipeline_config
    from translitkit.langid import save_model

    cb, input_model, output_model = models
    codebook_mod.save_path(cb, str(tmp_path / "cb.tsv"))
    save_model(input_model, str(tmp_path / "in.lid"))
    save_model(output_model, str(tmp_path / "out.lid"))
    path = tmp_path / "p.cfg"
    path.write_text("codebook = cb.tsv\ninput_model = in.lid\noutput_model = out.lid\n", encoding="utf-8")
    pl = Pipeline.from_config(load_pipeline_config(str(path)))
    assert _settings(pl) == _settings(Pipeline(cb, input_model, output_model)) == {
        "model_stage": "identity", "model_command": None, "decode_mode": "strict", "confidence_threshold": 0.5,
    }
    assert pl.pinyin_transform is None


@pytest.mark.parametrize(
    "key, value",
    [
        ("confidence_threshold", 7.0),
        ("confidence_threshold", -0.1),
        ("model_stage", "banana"),
        ("model_stage", "external"),
        ("decode_mode", "loose"),
    ],
)
def test_a_bad_setting_fails_alike_in_pipeline_config_and_a_config_file(tmp_path, capsys, models, key, value):
    from translitkit.cli import main

    cb, input_model, output_model = models
    with pytest.raises(ValueError) as from_pipeline:
        Pipeline(cb, input_model, output_model, **{key: value})
    with pytest.raises(ValueError) as from_config:
        PipelineConfig("cb", "in", "out", **{key: value})
    assert str(from_pipeline.value) == str(from_config.value)
    # The settings are checked before any file is read, so the paths need not exist.
    path = tmp_path / "p.cfg"
    path.write_text(f"codebook = cb.tsv\ninput_model = in.lid\noutput_model = out.lid\n{key} = {value}\n")
    assert main(["pipeline", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {path} line 4: {from_config.value}\n"
