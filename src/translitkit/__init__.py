"""translitkit: reversible, compression-oriented transliteration of non-Latin
scripts into structured Latin code sequences.

The public surface mirrors the processing flow: frequency analysis ->
codebook construction -> reversible encode/decode, with BPE tokenization,
compression metrics, language identification and an end-to-end pipeline on
top. Submodules carry the full APIs; the names below cover everyday use.
"""

__version__ = "0.1.0"

from .bpe import BpeModel, merge_vocab, token_length_histogram
from .codebook import Codebook, CodebookEntry, build_basic, build_hybrid, build_tokenizer_optimized
from .codespace import (
    DEFAULT_PROFILE,
    FULL_PROFILE,
    CodeSpaceProfile,
    capacity,
    enumerate_codes,
    is_valid_code,
)
from .errors import TranslitError
from .freqanalysis import (
    DEFAULT_SCRIPT_RANGES,
    FrequencyTable,
    ScriptRange,
    merged_charset,
    scan_corpus,
)
from .langid import LangIdModel, Prediction, TrainingParams
from .metrics import CompressionReport, compression_report, file_compression, token_compression
from .pipeline import Pipeline, PipelineConfig, PipelineTrace
from .translit import DecodeResult, RoundtripReport, from_latin, to_latin, verify_roundtrip

__all__ = [
    "__version__",
    "BpeModel",
    "merge_vocab",
    "token_length_histogram",
    "Codebook",
    "CodebookEntry",
    "build_basic",
    "build_hybrid",
    "build_tokenizer_optimized",
    "DEFAULT_PROFILE",
    "FULL_PROFILE",
    "CodeSpaceProfile",
    "capacity",
    "enumerate_codes",
    "is_valid_code",
    "TranslitError",
    "DEFAULT_SCRIPT_RANGES",
    "FrequencyTable",
    "ScriptRange",
    "merged_charset",
    "scan_corpus",
    "LangIdModel",
    "Prediction",
    "TrainingParams",
    "CompressionReport",
    "compression_report",
    "file_compression",
    "token_compression",
    "Pipeline",
    "PipelineConfig",
    "PipelineTrace",
    "DecodeResult",
    "RoundtripReport",
    "from_latin",
    "to_latin",
    "verify_roundtrip",
]
