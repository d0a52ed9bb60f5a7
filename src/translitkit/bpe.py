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


def _byte_tokens(ch: str) -> list[str]:
    return [f"<0x{b:02X}>" for b in ch.encode("utf-8")]


@dataclass
class BpeModel:
    """Ordered vocabulary plus ordered merge rules.

    Invariants checked at construction (`_index`): vocab entries unique, every
    merge result in the vocab and no merge listed twice. With `byte_fallback`,
    characters outside the vocab decompose into per-byte `<0xXX>` tokens;
    otherwise they stay as single out-of-vocabulary tokens.
    """

    vocab: list[str]
    merges: list[tuple[str, str]]
    byte_fallback: bool = False
    _vocab_set: frozenset[str] = field(init=False, repr=False, compare=False)
    _ranks: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._vocab_set, self._ranks = _index(
            ((f"vocab[{i}]", token) for i, token in enumerate(self.vocab)),
            ((f"merges[{i}]", pair) for i, pair in enumerate(self.merges)),
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
        """Apply the merges by rank, each at every site of its pair left to right.

        The symbols form a linked list (`nxt`, `prv`; a merged-away symbol is
        None) and a heap holds `(rank, left position)` for each adjacent pair
        that has a rank. A round pops every entry of the lowest rank, merges
        the ones whose pair is still there, and only then pushes the pairs the
        merges made: a new pair may rank lower than the round's, and pushing it
        at once would merge it before the round's later sites.
        """
        syms: list[str | None] = []
        for ch in word:
            if self.byte_fallback and ch not in self._vocab_set:
                syms.extend(_byte_tokens(ch))
            else:
                syms.append(ch)
        ranks = self._ranks
        heap = [(r, i) for i, pair in enumerate(zip(syms, syms[1:])) if (r := ranks.get(pair)) is not None]
        if heap:
            heapq.heapify(heap)
            n = len(syms)
            nxt = list(range(1, n + 1))  # n: no right neighbour
            prv = list(range(-1, n - 1))  # -1: no left neighbour
            while heap:
                rank = heap[0][0]
                a, b = self.merges[rank]
                ab = a + b
                merged = []
                while heap and heap[0][0] == rank:
                    i = heapq.heappop(heap)[1]
                    j = nxt[i]
                    if syms[i] == a and j < n and syms[j] == b:  # else stale
                        syms[i] = ab
                        syms[j] = None
                        nxt[i] = k = nxt[j]
                        if k < n:
                            prv[k] = i
                        merged.append(i)
                for i in merged:
                    p = prv[i]
                    if p >= 0 and (r := ranks.get((syms[p], ab))) is not None:
                        heapq.heappush(heap, (r, p))
                    k = nxt[i]
                    if k < n and (r := ranks.get((ab, syms[k]))) is not None:
                        heapq.heappush(heap, (r, i))
            syms = [s for s in syms if s is not None]
        return tuple(syms)


def _index(vocab, merges, vocab_prefix: str = "", merges_prefix: str = "") -> tuple[frozenset[str], dict]:
    """Check the `(place, token)` vocab rows, then the `(place, (a, b))` merge rows, against every
    rule of a model: no token twice, each merge result in the vocab, no merge twice. Returns the
    vocab as a set and each merge's rank; an error names its rows' prefix and the row's place.
    """
    place_of: dict[str, str] = {}
    for place, token in vocab:
        if token in place_of:
            raise FormatError(f"{vocab_prefix}{place}: token {token!r} already on {place_of[token]}")
        place_of[token] = place
    ranks: dict[tuple[str, str], int] = {}
    merge_place: dict[tuple[str, str], str] = {}
    for rank, (place, (a, b)) in enumerate(merges):
        if a + b not in place_of:
            raise FormatError(f"{merges_prefix}{place}: merge result {a + b!r} missing from vocab")
        if (a, b) in merge_place:
            raise FormatError(f"{merges_prefix}{place}: merge {f'{a} {b}'!r} already on {merge_place[a, b]}")
        merge_place[a, b] = place
        ranks[a, b] = rank
    return frozenset(place_of), ranks


def train(corpus, target_vocab: int) -> BpeModel:
    """Standard greedy BPE training until `target_vocab` entries or no pairs left.

    Each step merges the most frequent adjacent pair; ties on frequency break to
    the lexicographically smallest pair, so the result depends only on the
    corpus. Training is incremental (Sennrich et al. 2016). Each distinct word
    is a linked list of symbols in one shared list, and three tables follow the
    pairs: the count of each pair (times its word's frequency), the sites of
    each pair (the positions of its left symbol) and a lazy-deletion heap keyed
    by `(-count, pair)`, whose top is the highest count with the smallest pair.
    A heap entry whose count no longer matches is stale and skipped.

    A merge visits only its pair's sites, in position order, so each word is
    merged left to right. A site whose pair is no longer there (an earlier site
    consumed its symbol, or a merge changed it) is stale and skipped. At a live
    site, the pairs with the old neighbours leave the counts, the pairs with the
    new symbol join them and the sites index, and the list is relinked. The
    merges are the same as recounting every pair of every word at each step;
    the work grows with the sites a merge visits, not with the corpus.
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
    syms: list[str | None] = []  # a merged-away symbol is None
    freq: list[int] = []  # the frequency of each symbol's word
    nxt: list[int] = []  # -1 at a word's last symbol
    prv: list[int] = []  # -1 at a word's first symbol
    counts: Counter[tuple[str, str]] = Counter()
    sites: defaultdict[tuple[str, str], list[int]] = defaultdict(list)
    for word, f in words.items():
        start = len(syms)
        syms += word
        freq += [f] * len(word)
        nxt += range(start + 1, len(syms))
        nxt.append(-1)
        prv.append(-1)
        prv += range(start, len(syms) - 1)
        for i, pair in enumerate(zip(word, word[1:]), start):
            counts[pair] += f
            sites[pair].append(i)
    heap = [(-n, pair) for pair, n in counts.items()]
    heapq.heapify(heap)
    while len(vocab) < target_vocab and heap:
        neg, best = heapq.heappop(heap)
        if counts.get(best) != -neg:
            continue  # stale: the pair's count changed after this entry was pushed
        a, b = best
        ab = a + b
        merges.append(best)
        vocab.append(ab)
        del counts[best]
        delta: defaultdict[tuple[str, str], int] = defaultdict(int)
        for i in sorted(sites.pop(best)):
            j = nxt[i]
            if syms[i] != a or j < 0 or syms[j] != b:
                continue  # stale site
            f = freq[i]
            p = prv[i]
            if p >= 0:
                left = syms[p]
                delta[left, a] -= f
                delta[left, ab] += f
                sites[left, ab].append(p)
            k = nxt[j]
            if k >= 0:
                right = syms[k]
                delta[b, right] -= f
                delta[ab, right] += f
                sites[ab, right].append(i)
                prv[k] = i
            nxt[i] = k
            syms[i] = ab
            syms[j] = None
        delta.pop(best, None)  # (b, right) is the merged pair when a == b == right
        for pair, d in delta.items():
            n = counts[pair] + d
            if n:
                if d:
                    counts[pair] = n
                    heapq.heappush(heap, (-n, pair))
            else:  # the pair is gone, and every site listed for it is stale
                counts.pop(pair, None)
                sites.pop(pair, None)
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
    """Read what `save_model` writes; `_index` checks the tokens and merges, each named by its line."""
    vocab_path = os.path.join(dirpath, "vocab.txt")
    merges_path = os.path.join(dirpath, "merges.txt")
    if not os.path.isfile(vocab_path) or not os.path.isfile(merges_path):
        raise ConfigError(f"{dirpath}: expected vocab.txt and merges.txt")
    vocab = [(f"line {n}", token) for n, (token, _) in enumerate(textio.read_file(vocab_path), start=1) if token]
    merges = []
    for lineno, (line, _) in enumerate(textio.read_file(merges_path), start=1):
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise FormatError(f"{merges_path} line {lineno}: expected two space-separated symbols")
        merges.append((f"line {lineno}", (parts[0], parts[1])))
    _index(vocab, merges, f"{vocab_path} ", f"{merges_path} ")
    return BpeModel([token for _, token in vocab], [pair for _, pair in merges], byte_fallback)
