"""Minimal byte-pair encoding: apply, train, merge vocabularies, token statistics.

Pre-tokenization splits on whitespace; whitespace runs pass through as literal
tokens. That is all the code-qualification and token-counting paths need, and
it keeps tokenize(text) deterministic for any model.
"""

from __future__ import annotations

import heapq
import os
import re
from collections import Counter, defaultdict
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
    _vocab_set: frozenset[str] = field(init=False, repr=False, compare=False)
    _ranks: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    _word_cache: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

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


def _merge_pair(syms: list[str], pair: tuple[str, str], sites: list[int] | None = None) -> list[str]:
    """Replace every non-overlapping occurrence of `pair`, left to right.

    If `sites` is a list, the index in `syms` of each replaced occurrence is appended to it.
    """
    a, b = pair
    out: list[str] = []
    i = 0
    last = len(syms) - 1
    while True:
        try:
            j = syms.index(a, i, last)
        except ValueError:
            break
        if syms[j + 1] == b:
            out += syms[i:j]
            out.append(a + b)
            if sites is not None:
                sites.append(j)
            i = j + 2
        else:
            out += syms[i : j + 1]
            i = j + 1
    out += syms[i:]
    return out


def _pairs_at(syms: list[str], starts: list[int]) -> list[tuple[str, str]]:
    """The adjacent pairs of `syms` that start at the given indices, skipping those out of range."""
    last = len(syms) - 1
    return [(syms[k], syms[k + 1]) for k in set(starts) if 0 <= k < last]


def train(corpus, target_vocab: int) -> BpeModel:
    """Standard greedy BPE training until `target_vocab` entries or no pairs left.

    Each step merges the most frequent adjacent pair; ties on frequency break to
    the lexicographically smallest pair, so the result depends only on the
    corpus. Training is incremental (Sennrich et al. 2016): it keeps the pair
    counts, an index from each pair to the distinct words that have held it,
    and a lazy-deletion heap keyed by `(-count, pair)`, whose top is the
    highest count with the smallest pair. A heap entry whose count no longer
    matches is stale and skipped. A merge re-merges only the words the index
    lists for its pair. In each, only the pairs that touch a merged position
    change: their old pairs leave the counts and their new pairs join them,
    times the word's frequency. The merges are the same as recounting every
    pair of every word at each step; the work grows with the pairs a merge
    changes, not with the corpus.
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
    seqs = [list(w) for w in words]
    freqs = list(words.values())
    counts: Counter[tuple[str, str]] = Counter()
    where: dict[tuple[str, str], set[int]] = defaultdict(set)
    for i, syms in enumerate(seqs):
        for pair, n in Counter(zip(syms, syms[1:])).items():
            counts[pair] += n * freqs[i]
            where[pair].add(i)
    heap = [(-n, pair) for pair, n in counts.items()]
    heapq.heapify(heap)
    while len(vocab) < target_vocab and heap:
        neg, best = heapq.heappop(heap)
        if counts.get(best) != -neg:
            continue  # stale: the pair's count changed after this entry was pushed
        merges.append(best)
        vocab.append(best[0] + best[1])
        delta: Counter[tuple[str, str]] = Counter()
        for i in where.pop(best):
            syms = seqs[i]
            sites: list[int] = []
            merged = seqs[i] = _merge_pair(syms, best, sites)
            freq = freqs[i]
            # The s-th merge site j spans old positions j, j + 1 and new position j - s.
            for pair in _pairs_at(syms, [k for j in sites for k in (j - 1, j, j + 1)]):
                delta[pair] -= freq
            for pair in _pairs_at(merged, [k for s, j in enumerate(sites) for k in (j - s - 1, j - s)]):
                delta[pair] += freq
                where[pair].add(i)
        for pair, d in delta.items():
            if d:
                n = counts[pair] + d
                if n:
                    counts[pair] = n
                    heapq.heappush(heap, (-n, pair))
                else:
                    del counts[pair]
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
            raise FormatError(f"{merges_path} line {lineno}: expected two space-separated symbols")
        merges.append((parts[0], parts[1]))
    return BpeModel(vocab, merges, byte_fallback)
