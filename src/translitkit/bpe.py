"""Minimal byte-pair encoding: apply, train, merge vocabularies, token statistics.

Pre-tokenization splits on whitespace; whitespace runs pass through as literal
tokens. That is all the code-qualification and token-counting paths need, and
it keeps tokenize(text) deterministic for any model.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass, field

from . import textio
from .errors import ConfigError, FormatError

_WS_SPLIT = re.compile(r"(\s+)")
_SURROGATE = re.compile("[\ud800-\udfff]")  # a lone surrogate has no UTF-8 encoding
_CACHE_CAP = 1 << 20


def _byte_tokens(ch: str) -> list[str]:
    return [f"<0x{b:02X}>" for b in ch.encode("utf-8")]


@dataclass
class BpeModel:
    """Ordered vocabulary plus ordered merge rules.

    Invariants checked at construction: vocab entries unique, and every merge
    result appears in the vocab. With `byte_fallback`, characters outside the
    vocab decompose into per-byte `<0xXX>` tokens; otherwise they stay as
    single out-of-vocabulary tokens.
    """

    vocab: list[str]
    merges: list[tuple[str, str]]
    byte_fallback: bool = False
    _vocab_set: frozenset[str] = field(init=False, repr=False)
    _ranks: dict[tuple[str, str], int] = field(init=False, repr=False)
    _word_cache: dict[str, tuple[str, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        if len(set(self.vocab)) != len(self.vocab):
            dupes = [t for t, n in Counter(self.vocab).items() if n > 1]
            raise FormatError(f"duplicate vocab entries: {dupes[:5]!r}")
        self._vocab_set = frozenset(self.vocab)
        for a, b in self.merges:
            if a + b not in self._vocab_set:
                raise FormatError(f"merge result {a + b!r} missing from vocab")
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._word_cache = {}

    def __eq__(self, other):
        if not isinstance(other, BpeModel):
            return NotImplemented
        return (
            self.vocab == other.vocab
            and self.merges == other.merges
            and self.byte_fallback == other.byte_fallback
        )

    def tokenize(self, text: str) -> list[str]:
        """Deterministic segmentation: lowest-ranked applicable merge first."""
        out: list[str] = []
        for i, part in enumerate(_WS_SPLIT.split(text)):
            if not part:
                continue
            if i & 1:  # whitespace run
                out.append(part)
            else:
                out.extend(self._tokenize_word(part))
        return out

    def _tokenize_word(self, word: str) -> tuple[str, ...]:
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        syms: list[str] = []
        for ch in word:
            if self.byte_fallback and ch not in self._vocab_set:
                syms.extend(_byte_tokens(ch))
            else:
                syms.append(ch)
        ranks = self._ranks
        while len(syms) > 1:
            best_rank = None
            best_pair = None
            for pair in zip(syms, syms[1:]):
                r = ranks.get(pair)
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank, best_pair = r, pair
            if best_pair is None:
                break
            syms = _merge_pair(syms, best_pair)
        result = tuple(syms)
        if len(self._word_cache) < _CACHE_CAP:
            self._word_cache[word] = result
        return result


def _merge_pair(syms: list[str], pair: tuple[str, str]) -> list[str]:
    """Replace every non-overlapping occurrence of `pair`, left to right."""
    a, b = pair
    out = []
    i = 0
    n = len(syms)
    while i < n:
        if i + 1 < n and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def train(corpus, target_vocab: int) -> BpeModel:
    """Standard greedy BPE training until `target_vocab` entries or no pairs left.

    Ties on pair frequency break to the lexicographically smallest pair, so the
    result depends only on the corpus.
    """
    words: Counter[str] = Counter()
    ws_runs: set[str] = set()
    for line in corpus:
        for i, part in enumerate(_WS_SPLIT.split(line)):
            if not part:
                continue
            if i & 1:
                ws_runs.add(part)
            else:
                words[part] += 1
    if not words and not ws_runs:
        raise ConfigError("cannot train on an empty corpus")
    alphabet = sorted({ch for w in words for ch in w} | ws_runs)
    if target_vocab < len(alphabet):
        raise ConfigError(
            f"corpus alphabet has {len(alphabet)} symbols, exceeding target vocab {target_vocab}"
        )
    vocab = list(alphabet)
    merges: list[tuple[str, str]] = []
    seqs: dict[str, list[str]] = {w: list(w) for w in words}
    while len(vocab) < target_vocab:
        pairs: Counter[tuple[str, str]] = Counter()
        for w, syms in seqs.items():
            freq = words[w]
            for pair in zip(syms, syms[1:]):
                pairs[pair] += freq
        if not pairs:
            break
        top = max(pairs.values())
        best = min(p for p, n in pairs.items() if n == top)
        merges.append(best)
        vocab.append(best[0] + best[1])
        for w, syms in seqs.items():
            if len(syms) > 1:
                seqs[w] = _merge_pair(syms, best)
    return BpeModel(vocab, merges)


def merge_vocab(base: BpeModel, extra: BpeModel) -> BpeModel:
    """Union the vocabularies: base order first, then extra's new tokens."""
    base_set = set(base.vocab)
    vocab = base.vocab + [t for t in extra.vocab if t not in base_set]
    base_merges = set(base.merges)
    merges = base.merges + [m for m in extra.merges if m not in base_merges]
    return BpeModel(vocab, merges, base.byte_fallback or extra.byte_fallback)


def token_length_histogram(strings, model: BpeModel) -> dict[int, int]:
    """Tokens-per-string histogram with buckets 1, 2, 3, and 4 meaning "4 or more"."""
    hist = {1: 0, 2: 0, 3: 0, 4: 0}
    for s in strings:
        n = len(model.tokenize(s))
        if n:
            hist[min(n, 4)] += 1
    return hist


def _check_storable(token: str, filename: str, forbidden: str) -> None:
    """Raise FormatError unless `token` reads back unchanged from its line of `filename`."""
    if not token or token.endswith("\r") or any(c in token for c in forbidden) or _SURROGATE.search(token):
        raise FormatError(
            f"{filename} cannot store {token!r}: a token must be non-empty, encodable as UTF-8, "
            f"contain none of {forbidden!r} and not end in '\\r'"
        )


def save_model(model: BpeModel, dirpath: str) -> None:
    """Write `vocab.txt` (one token per line) and `merges.txt` (one pair per line).

    A token either file could not give back raises FormatError before anything is written.
    """
    for token in model.vocab:
        _check_storable(token, "vocab.txt", "\n")
    for pair in model.merges:
        for symbol in pair:
            _check_storable(symbol, "merges.txt", "\n ")
    for filename, first in (("vocab.txt", model.vocab[:1]), ("merges.txt", [a for a, _ in model.merges[:1]])):
        if first and first[0].startswith(textio.BOM):
            raise FormatError(f"{filename} cannot store {first[0]!r}: its first line loses a leading BOM")
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "vocab.txt"), "w", encoding="utf-8", newline="\n") as fh:
        for token in model.vocab:
            fh.write(token + "\n")
    with open(os.path.join(dirpath, "merges.txt"), "w", encoding="utf-8", newline="\n") as fh:
        for a, b in model.merges:
            fh.write(f"{a} {b}\n")


def load_model(dirpath: str, byte_fallback: bool = False) -> BpeModel:
    vocab_path = os.path.join(dirpath, "vocab.txt")
    merges_path = os.path.join(dirpath, "merges.txt")
    if not os.path.isfile(vocab_path) or not os.path.isfile(merges_path):
        raise ConfigError(f"{dirpath}: expected vocab.txt and merges.txt")
    vocab = [token for token, _ in textio.read_file(vocab_path) if token]
    merges = []
    for lineno, (line, _) in enumerate(textio.read_file(merges_path), start=1):
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise FormatError(f"merges.txt line {lineno}: expected two space-separated symbols")
        merges.append((parts[0], parts[1]))
    return BpeModel(vocab, merges, byte_fallback)
