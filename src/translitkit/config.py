"""Flat key-value config files: `key = value` lines, `#` comments, one file per concern.

Paths inside a config resolve relative to the config file's directory. A key
the loader does not know is a ConfigError naming the keys it does know; only
the ranges file takes any key, because each of its keys names a script.
"""

from __future__ import annotations

import os
from dataclasses import fields
from typing import TYPE_CHECKING

from . import textio
from .codespace import UPPER, CodeSpaceProfile
from .errors import ConfigError, TrainingError

if TYPE_CHECKING:  # each is imported by the one loader that uses it
    from .freqanalysis import ScriptRange
    from .langid import TrainingParams
    from .pipeline import PipelineConfig


def load_kv(path: str) -> dict[str, str]:
    return _read_kv(path)[0]


def _read_kv(path: str) -> tuple[dict[str, str], dict[str, int]]:
    """The `key = value` pairs of `path`, and the line of each key."""
    pairs: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, (line, _) in enumerate(textio.read_file(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path} line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"{path} line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
        line_of[key] = lineno
    return pairs, line_of


def _check_keys(pairs: dict[str, str], allowed: tuple[str, ...], path: str) -> None:
    """Raise ConfigError naming the first key of `pairs` not in `allowed`."""
    for key in pairs:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}; expected one of {', '.join(allowed)}")


def parse_letters(spec: str, where: str = "") -> list[str]:
    """Uppercase letter set: 'A-F', 'ABCDEF' and 'A,B,C' all work; '' is empty. `where` prefixes an error."""
    spec = spec.replace(",", "").replace(" ", "")
    if not spec:
        return []
    if "-" in spec:
        lo, _, hi = spec.partition("-")
        if len(lo) == 1 and len(hi) == 1 and lo in UPPER and hi in UPPER and lo <= hi:
            return list(UPPER[UPPER.index(lo) : UPPER.index(hi) + 1])
        raise ConfigError(f"{where}bad letter range {spec!r}")
    for c in spec:
        if c not in UPPER:
            raise ConfigError(f"{where}bad letter {c!r} in {spec!r}")
    return list(spec)


def _get_int(pairs: dict[str, str], key: str, default: int, path: str) -> int:
    if key not in pairs:
        return default
    try:
        return int(pairs[key])
    except ValueError as exc:
        raise ConfigError(f"{path}: key {key!r} must be an integer") from exc


def _get_float(pairs: dict[str, str], key: str, default: float, path: str) -> float:
    if key not in pairs:
        return default
    try:
        return float(pairs[key])
    except ValueError as exc:
        raise ConfigError(f"{path}: key {key!r} must be a number") from exc


_PROFILE_KEYS = ("max_len", "excluded_single_letters", "two_char_first_letters")
_PIPELINE_KEYS = (
    "codebook", "input_model", "output_model", "model_stage", "model_command", "decode_mode",
    "confidence_threshold", "pinyin_transform",
)
_TRAINING_KEYS = (
    "preset", "learning_rate", "epochs", "ngram_min", "ngram_max", "min_count", "seed", "hash_buckets",
)


def load_profile(path: str) -> CodeSpaceProfile:
    """Keys: max_len, excluded_single_letters, two_char_first_letters."""
    pairs, line_of = _read_kv(path)
    _check_keys(pairs, _PROFILE_KEYS, path)
    defaults = CodeSpaceProfile()
    kwargs = {}
    kwargs["max_len"] = _get_int(pairs, "max_len", defaults.max_len, path)
    for key, kind in (("excluded_single_letters", frozenset), ("two_char_first_letters", tuple)):
        if key in pairs:
            kwargs[key] = kind(parse_letters(pairs[key], f"{path} line {line_of[key]}: "))
    try:
        return CodeSpaceProfile(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_interval(part: str, path: str) -> tuple[int, int]:
    part = part.strip().removeprefix("U+").replace("U+", "")
    lo, sep, hi = part.partition("-")
    try:
        lo_cp = int(lo, 16)
        hi_cp = int(hi, 16) if sep else lo_cp
    except ValueError as exc:
        raise ConfigError(f"{path}: bad code point interval {part!r}") from exc
    return lo_cp, hi_cp


def load_ranges(path: str) -> list[ScriptRange]:
    """One key per script; values are comma-separated hex intervals like 0F00-0FFF."""
    from .freqanalysis import ScriptRange

    pairs = load_kv(path)
    if not pairs:
        raise ConfigError(f"{path}: no script ranges defined")
    ranges = []
    for name, value in pairs.items():
        intervals = tuple(_parse_interval(p, path) for p in value.split(",") if p.strip())
        try:
            ranges.append(ScriptRange(name, intervals))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return ranges


def load_pipeline_config(path: str) -> PipelineConfig:
    """A path key `k` sets `k_path`, resolved against the file's directory; the first
    three are required. Any other key is a `PipelineSettings` field, read as its
    type: a number for a float, None for an empty value where None is allowed.
    A setting the file omits keeps its default.
    """
    from .pipeline import PipelineConfig

    pairs = load_kv(path)
    _check_keys(pairs, _PIPELINE_KEYS, path)
    for required in _PIPELINE_KEYS[:3]:
        if not pairs.get(required):
            raise ConfigError(f"{path}: missing required key {required!r}")
    base = os.path.dirname(os.path.abspath(path))
    types = {f.name: str(f.type) for f in fields(PipelineConfig)}
    kwargs: dict[str, object] = {}
    for key, value in pairs.items():
        if key not in types:  # a path key
            kwargs[f"{key}_path"] = os.path.join(base, value) if value else None
        elif not value and "None" in types[key]:
            kwargs[key] = None
        elif "float" in types[key]:
            kwargs[key] = _get_float(pairs, key, None, path)
        else:
            kwargs[key] = value
    try:
        return PipelineConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_training_params(path: str) -> tuple[TrainingParams, int]:
    """Returns (params, hash_buckets), checked as `langid.train` checks them. Key `preset` picks the defaults."""
    from .langid import DEFAULT_HASH_BUCKETS, TrainingParams, _check_params

    pairs = load_kv(path)
    _check_keys(pairs, _TRAINING_KEYS, path)
    preset = pairs.get("preset", "input")
    if preset == "input":
        base = TrainingParams.input_defaults()
    elif preset == "output":
        base = TrainingParams.output_defaults()
    else:
        raise ConfigError(f"{path}: preset must be 'input' or 'output', got {preset!r}")
    params = TrainingParams(
        learning_rate=_get_float(pairs, "learning_rate", base.learning_rate, path),
        epochs=_get_int(pairs, "epochs", base.epochs, path),
        ngram_range=(
            _get_int(pairs, "ngram_min", base.ngram_range[0], path),
            _get_int(pairs, "ngram_max", base.ngram_range[1], path),
        ),
        min_count=_get_int(pairs, "min_count", base.min_count, path),
        seed=_get_int(pairs, "seed", base.seed, path),
    )
    buckets = _get_int(pairs, "hash_buckets", DEFAULT_HASH_BUCKETS, path)
    try:
        _check_params(params, buckets)
    except TrainingError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return params, buckets
