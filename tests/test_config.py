import re
from pathlib import Path

import pytest

from translitkit.codespace import DEFAULT_PROFILE, FULL_PROFILE
from translitkit.config import (
    load_kv,
    load_pipeline_config,
    load_profile,
    load_ranges,
    load_training_params,
    parse_letters,
)
from translitkit.errors import ConfigError
from translitkit.freqanalysis import DEFAULT_SCRIPT_RANGES


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_kv(tmp_path):
    path = write(tmp_path, "a.cfg", "# comment\n\nkey = value\nspaced key = a = b\n")
    assert load_kv(path) == {"key": "value", "spaced key": "a = b"}


def test_load_kv_errors(tmp_path):
    with pytest.raises(ConfigError, match="line 1"):
        load_kv(write(tmp_path, "bad.cfg", "no equals sign\n"))
    with pytest.raises(ConfigError, match="duplicate"):
        load_kv(write(tmp_path, "dup.cfg", "k = 1\nk = 2\n"))


def test_parse_letters():
    assert parse_letters("A-F") == list("ABCDEF")
    assert parse_letters("XYZ") == list("XYZ")
    assert parse_letters("A,B,C") == list("ABC")
    assert parse_letters("") == []
    with pytest.raises(ConfigError):
        parse_letters("a-f")
    with pytest.raises(ConfigError):
        parse_letters("F-A")


def test_load_profile_defaults(tmp_path):
    path = write(tmp_path, "p.cfg", "# all defaults\n")
    assert load_profile(path) == DEFAULT_PROFILE


def test_load_profile_custom(tmp_path):
    path = write(
        tmp_path,
        "p.cfg",
        "max_len = 2\nexcluded_single_letters = AIOYZ\ntwo_char_first_letters = A-F\n",
    )
    profile = load_profile(path)
    assert profile == DEFAULT_PROFILE
    empty = write(tmp_path, "p2.cfg", "excluded_single_letters =\n")
    assert load_profile(empty).excluded_single_letters == frozenset()


def test_load_ranges(tmp_path):
    path = write(
        tmp_path,
        "r.cfg",
        "Tibetan = 0F00-0FFF\nUyghur = 0600-06FF, FB50-FDFF, FE70-FEFF\nSingle = U+1234\n",
    )
    ranges = load_ranges(path)
    assert [r.name for r in ranges] == ["Tibetan", "Uyghur", "Single"]
    assert ranges[1].ranges == ((0x0600, 0x06FF), (0xFB50, 0xFDFF), (0xFE70, 0xFEFF))
    assert ranges[2].ranges == ((0x1234, 0x1234),)


def test_load_ranges_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_ranges(write(tmp_path, "e.cfg", ""))
    with pytest.raises(ConfigError):
        load_ranges(write(tmp_path, "e2.cfg", "X = GGGG-HHHH\n"))


def test_load_pipeline_config_resolves_paths(tmp_path):
    path = write(
        tmp_path,
        "pipe.cfg",
        "codebook = cb.tsv\ninput_model = in.lid\noutput_model = out.lid\n"
        "model_stage = external\nmodel_command = cat\nconfidence_threshold = 0.7\n",
    )
    cfg = load_pipeline_config(path)
    assert cfg.codebook_path == str(tmp_path / "cb.tsv")
    assert cfg.model_stage == "external"
    assert cfg.model_command == "cat"
    assert cfg.confidence_threshold == 0.7
    assert cfg.pinyin_transform_path is None


def test_load_pipeline_config_missing_key(tmp_path):
    with pytest.raises(ConfigError, match="output_model"):
        load_pipeline_config(
            write(tmp_path, "p.cfg", "codebook = cb.tsv\ninput_model = in.lid\n")
        )


def test_load_training_params_presets(tmp_path):
    params, buckets = load_training_params(write(tmp_path, "t.cfg", "preset = output\n"))
    assert params.learning_rate == 0.05
    assert params.ngram_range == (2, 4)
    params, buckets = load_training_params(
        write(tmp_path, "t2.cfg", "preset = input\nepochs = 3\nhash_buckets = 4096\n")
    )
    assert params.epochs == 3
    assert params.learning_rate == 0.1
    assert buckets == 4096
    with pytest.raises(ConfigError):
        load_training_params(write(tmp_path, "t3.cfg", "preset = banana\n"))


@pytest.mark.parametrize(
    "load, text, key, expected",
    [
        (load_profile, "maxlen = 4\n", "maxlen", "max_len, excluded_single_letters, two_char_first_letters"),
        (load_pipeline_config,
         "codebook = cb.tsv\ninput_model = in.lid\noutput_model = out.lid\nconfidence_treshold = 0.9\n",
         "confidence_treshold", "codebook, input_model, output_model, model_stage, model_command, "
         "decode_mode, confidence_threshold, pinyin_transform"),
        (load_training_params, "preset = input\nepoch = 3\n", "epoch",
         "preset, learning_rate, epochs, ngram_min, ngram_max, min_count, seed, hash_buckets"),
    ],
)
def test_unknown_key_is_an_error(tmp_path, load, text, key, expected):
    path = write(tmp_path, "x.cfg", text)
    with pytest.raises(ConfigError) as info:
        load(path)
    line = text.count("\n", 0, text.index(key)) + 1
    assert str(info.value) == f"{path} line {line}: unknown key {key!r}; expected one of {expected}"


@pytest.mark.parametrize(
    "flag, args",
    [
        ("--profile", ["build-codebook", "--freq", "{freq}", "--strategy", "basic"]),
        ("--params", ["langid-train", "{freq}", "-o", "{out}"]),
        ("--config", ["pipeline"]),
    ],
)
def test_cli_exits_2_on_an_unknown_key(tmp_path, capsys, flag, args):
    from translitkit.cli import main

    path = write(tmp_path, "x.cfg", "misspelt = 1\n")
    subs = {"{freq}": write(tmp_path, "freq.tsv", ""), "{out}": str(tmp_path / "out")}
    assert main([subs.get(a, a) for a in args] + [flag, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ConfigError: {path} line 1: unknown key 'misspelt'; expected one of ")


def test_ranges_take_any_script_name(tmp_path):
    path = write(tmp_path, "r.cfg", "max_len = 0F00-0FFF\n")
    assert [r.name for r in load_ranges(path)] == ["max_len"]


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_LOADER_BY_PREFIX = {
    "profile-": load_profile, "langid-": load_training_params, "pipeline-": load_pipeline_config,
    "ranges-": load_ranges,
}


@pytest.mark.parametrize("path", sorted(_CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_every_shipped_config_loads(path):
    loads = [load for prefix, load in _LOADER_BY_PREFIX.items() if path.name.startswith(prefix)]
    assert len(loads) == 1, path.name
    loads[0](str(path))


@pytest.mark.parametrize(
    "name, load, builtin",
    [
        ("profile-default.cfg", load_profile, DEFAULT_PROFILE),
        ("profile-full.cfg", load_profile, FULL_PROFILE),
        ("ranges-default.cfg", lambda path: tuple(load_ranges(path)), DEFAULT_SCRIPT_RANGES),
    ],
)
def test_each_shipped_default_loads_to_its_built_in_twin(name, load, builtin):
    assert load(str(_CONFIGS / name)) == builtin


def test_demo_script_configs_load(tmp_path):
    script = (_CONFIGS.parent / "scripts" / "run_demo.sh").read_text(encoding="utf-8")
    heredocs = re.findall(r'cat > "\$WORK/([\w-]+\.cfg)" <<\'EOF\'\n(.*?)\nEOF\n', script, re.S)
    assert [name for name, _ in heredocs] == ["lid-input.cfg", "lid-output.cfg"]
    for name, text in heredocs:
        load_training_params(write(tmp_path, name, text + "\n"))


def test_a_float_key_that_is_not_a_number_names_the_file(tmp_path):
    path = write(tmp_path, "t.cfg", "preset = input\nlearning_rate = fast\n")
    with pytest.raises(ConfigError) as info:
        load_training_params(path)
    assert str(info.value) == f"{path} line 2: key 'learning_rate' must be a number"


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_profile, "max_len = 0\n", "max_len must be >= 1, got 0"),
        (load_ranges, "Tibetan = 0F00-0F10, 0F08-0F20\n", "overlapping intervals in script range Tibetan"),
        (load_ranges, "Tibetan = 0F10-0F00\n", "bad interval 0xf10-0xf00 in Tibetan"),
    ],
)
def test_a_value_its_constructor_refuses_is_a_config_error_naming_the_file(tmp_path, load, text, message):
    path = write(tmp_path, "x.cfg", text)
    with pytest.raises(ConfigError) as info:
        load(path)
    assert str(info.value) == f"{path}: {message}"


def test_an_empty_pipeline_value_reads_as_none_where_none_is_allowed(tmp_path):
    paths = "codebook = cb.tsv\ninput_model = in.lid\noutput_model = out.lid\n"
    cfg = load_pipeline_config(write(tmp_path, "p.cfg", paths + "model_command =\npinyin_transform =\n"))
    assert cfg.model_command is None and cfg.pinyin_transform_path is None
    path = write(tmp_path, "q.cfg", paths + "model_stage = external\nmodel_command =\n")
    with pytest.raises(ConfigError) as info:
        load_pipeline_config(path)
    assert str(info.value) == f"{path}: model_stage 'external' requires model_command"
