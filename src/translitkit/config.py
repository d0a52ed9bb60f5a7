"""Flat key-value config files: `key = value` lines, `#` comments, one file per concern.

Each loader hands `_read` the builder of its object and a table of its keys,
drawn from the object's fields, each with the reader of its value. A key the
table lacks, or a value its reader or the object refuses, is a ConfigError
naming the file's line and, for an unknown key, the keys the table holds. Only
the ranges file takes any key, because each of its keys names a script. Paths
inside a config resolve relative to the config file's directory.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, fields, replace
from typing import TYPE_CHECKING, Any, Callable

from . import textio
from .errors import ConfigError, TrainingError

if TYPE_CHECKING:  # each is imported only where it is used
    from .codespace import CodeSpaceProfile
    from .freqanalysis import ScriptRange
    from .langid import TrainingParams
    from .pipeline import PipelineConfig

Reader = Callable[[str], Any]
#: What `int` and `float` ask of a value; `_read` words their refusals.
_MUST_BE: dict[Reader, str] = {int: "an integer", float: "a number"}
#: The keys of the two ends of `TrainingParams.ngram_range`.
_NGRAM_ENDS = ("ngram_min", "ngram_max")


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


def _read(path: str, readers: dict[str, Reader], build: Callable, every: Reader | None = None, required=()) -> Any:
    """`build(**values)` of `path`'s keys, each value read by its reader in `readers`, or by `every` if given.

    An unknown key, a value its reader refuses, or an empty `required` value is
    a ConfigError naming the key's line; an absent required key names the file.
    A reader refuses with a ConfigError that words the refusal, or a ValueError
    read as "key K must be <message>" (`_MUST_BE` words `int` and `float`). A
    refusal of `build` (a ValueError or a TrainingError) names the first line
    where the required values and those above it are refused in the same words.
    """
    pairs, line_of = _read_kv(path)
    values = {}
    for key, text in pairs.items():
        where = f"{path} line {line_of[key]}"
        read = readers.get(key, every)
        if read is None:
            raise ConfigError(f"{where}: unknown key {key!r}; expected one of {', '.join(readers)}")
        try:
            values[key] = read(text)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{where}: key {key!r} must be {_MUST_BE.get(read, exc)}") from exc
    for key in required:
        if not values.get(key):
            raise ConfigError(f"{path}{f' line {line_of[key]}' if key in values else ''}: missing required key {key!r}")
    try:
        return build(**values)
    except (ValueError, TrainingError) as exc:
        refusal = exc
    so_far = {key: values[key] for key in required}
    for key, value in values.items():
        so_far[key] = value
        try:
            build(**so_far)
        except (ValueError, TrainingError) as exc:
            if str(exc) == str(refusal):
                raise ConfigError(f"{path} line {line_of[key]}: {exc}") from exc
    raise ConfigError(f"{path}: {refusal}") from refusal


def parse_letters(spec: str) -> list[str]:
    """Uppercase letter set: 'A-F', 'ABCDEF' and 'A,B,C' all work; '' is empty."""
    from .codespace import UPPER

    spec = spec.replace(",", "").replace(" ", "")
    if not spec:
        return []
    if "-" in spec:
        lo, _, hi = spec.partition("-")
        if len(lo) == 1 and len(hi) == 1 and lo in UPPER and hi in UPPER and lo <= hi:
            return list(UPPER[UPPER.index(lo) : UPPER.index(hi) + 1])
        raise ConfigError(f"bad letter range {spec!r}")
    for c in spec:
        if c not in UPPER:
            raise ConfigError(f"bad letter {c!r} in {spec!r}")
    return list(spec)


def load_profile(path: str) -> CodeSpaceProfile:
    """One key per `CodeSpaceProfile` field: `max_len` an integer, each letter set as `parse_letters` reads it."""
    from .codespace import CodeSpaceProfile

    readers = {f.name: int if f.type == "int" else parse_letters for f in fields(CodeSpaceProfile)}
    return _read(path, readers, CodeSpaceProfile)


def _parse_interval(part: str) -> tuple[int, int]:
    part = part.strip().removeprefix("U+").replace("U+", "")
    lo, sep, hi = part.partition("-")
    try:
        lo_cp = int(lo, 16)
        hi_cp = int(hi, 16) if sep else lo_cp
    except ValueError as exc:
        raise ConfigError(f"bad code point interval {part!r}") from exc
    return lo_cp, hi_cp


def _intervals(value: str) -> tuple[tuple[int, int], ...]:
    return tuple(_parse_interval(p) for p in value.split(",") if p.strip())


def load_ranges(path: str) -> list[ScriptRange]:
    """One key per script; values are comma-separated hex intervals like 0F00-0FFF."""
    from .freqanalysis import ScriptRange

    ranges = _read(path, {}, lambda **values: [ScriptRange(*item) for item in values.items()], every=_intervals)
    if not ranges:
        raise ConfigError(f"{path}: no script ranges defined")
    return ranges


def _as_type(type_: str) -> Reader:
    """The reader of a setting of field type `type_`: a number for a float, else the text, None for '' where allowed."""
    if "float" in type_:
        return float
    return (lambda text: text or None) if "None" in type_ else str


def load_pipeline_config(path: str) -> PipelineConfig:
    """One key per `PipelineConfig` field, in the order its constructor takes them.

    A path field `k_path` is the key `k`, resolved against the file's directory;
    the fields with no default are required. Any other key is a setting, read as
    its field's type (see `_as_type`). A setting the file omits keeps its default.
    """
    from .pipeline import PipelineConfig

    base = os.path.dirname(os.path.abspath(path))

    def resolve(text: str) -> str | None:
        return os.path.join(base, text) if text else None

    by_key = {f.name.removesuffix("_path"): f for f in sorted(fields(PipelineConfig), key=lambda f: f.kw_only)}
    readers = {key: resolve if key != f.name else _as_type(f.type) for key, f in by_key.items()}

    def build(**values: Any) -> PipelineConfig:
        return PipelineConfig(**{by_key[key].name: value for key, value in values.items()})

    return _read(path, readers, build, required=[key for key, f in by_key.items() if f.default is MISSING])


def load_training_params(path: str) -> tuple[TrainingParams, int]:
    """Returns (params, hash_buckets), checked as `langid.train` checks them.

    Keys: `preset` (input or output) picks the defaults; one per `TrainingParams`
    field, `ngram_range` as its two ends `ngram_min` and `ngram_max`; and `hash_buckets`.
    """
    from .langid import DEFAULT_HASH_BUCKETS, TrainingParams, _check_params

    presets = {"input": TrainingParams.input_defaults(), "output": TrainingParams.output_defaults()}

    def preset(text: str) -> TrainingParams:
        if text not in presets:
            raise ValueError(f"'input' or 'output', got {text!r}")
        return presets[text]

    readers: dict[str, Reader] = {"preset": preset}
    for f in fields(TrainingParams):
        keys = _NGRAM_ENDS if f.name == "ngram_range" else (f.name,)
        readers |= dict.fromkeys(keys, float if f.type == "float" else int)

    def build(**values: Any) -> tuple[TrainingParams, int]:
        base = values.pop("preset", presets["input"])
        ngram_range = tuple(values.pop(key, end) for key, end in zip(_NGRAM_ENDS, base.ngram_range))
        buckets = values.pop("hash_buckets", DEFAULT_HASH_BUCKETS)
        params = replace(base, ngram_range=ngram_range, **values)
        _check_params(params, buckets)
        return params, buckets

    return _read(path, readers | {"hash_buckets": int}, build)
