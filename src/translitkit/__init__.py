"""translitkit: reversible, compression-oriented transliteration of non-Latin
scripts into structured Latin code sequences.

The public surface mirrors the processing flow: frequency analysis ->
codebook construction -> reversible encode/decode, with BPE tokenization,
compression metrics, language identification and an end-to-end pipeline on
top. Submodules carry the full APIs; the names below cover everyday use.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it. The names resolve on first
# access (PEP 562), so importing the package, as `python -m translitkit` and
# the `translitkit` script both do, loads no submodule and no numpy.
_SOURCES = {
    name: module
    for module, names in {
        "bpe": ("BpeModel", "merge_vocab", "token_length_histogram"),
        "codebook": ("Codebook", "CodebookEntry", "build_basic", "build_hybrid", "build_tokenizer_optimized"),
        "codespace": (
            "DEFAULT_PROFILE", "FULL_PROFILE", "CodeSpaceProfile", "capacity", "enumerate_codes",
            "is_valid_code",
        ),
        "errors": ("TranslitError",),
        "freqanalysis": (
            "DEFAULT_SCRIPT_RANGES", "FrequencyTable", "ScriptRange", "merged_charset", "scan_corpus",
        ),
        "langid": ("LangIdModel", "Prediction", "TrainingParams"),
        "metrics": ("CompressionReport", "compression_report", "file_compression", "token_compression"),
        "pipeline": ("Pipeline", "PipelineConfig", "PipelineTrace"),
        "translit": ("DecodeResult", "RoundtripReport", "from_latin", "to_latin", "verify_roundtrip"),
    }.items()
    for name in names
}
__all__ = ["__version__", *_SOURCES]
# Submodules reachable as attributes of the bare package, e.g. `tk.freqanalysis`.
_SUBMODULES = {*_SOURCES.values(), "textio"}


def __getattr__(name: str):
    if name in _SOURCES:
        value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCES, *_SUBMODULES})

