"""Independent reference implementations used as test oracles.

These deliberately share no code with the package: the encoder is a
char-by-char state machine that consults a transform only outside runs, the
decoder parses the wire grammar one character at a time with exact
whole-segment lookup (no greedy search), and the BPE applier rescans the
rule list from the top after every application. The BPE trainer recounts
every pair of every word before each merge, and the tokenizer-optimized
codebook oracle tokenizes every code of the profile. The language-id oracle
hashes each n-gram one character at a time and scores one text at a time in
plain floats; its training features count each text's gram strings in a
`Counter`, and its trainer gathers an example's weight rows once for the
scores and again for the update. The language-id oracles work on the dense
(hash_buckets, n_labels) weight matrix; `dense_weights` and `compact_model`
convert between it and a model, which holds only its rows with a bit set, and
`v1_bytes` writes it as a version-1 file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import struct
from collections import Counter

import numpy as np


def ref_encode(text: str, char_to_code: dict[int, str], transform: dict[int, str] | None = None) -> str:
    """Codebook entries first; a transform entry applies only to a character outside a run."""
    transform = transform or {}
    out = []
    run: list[str] = []

    def flush():
        if run:
            out.append("@")
            for ch in run:
                out.append("@@" if ch == "@" else ch)
            out.append("@")
            run.clear()

    for ch in text:
        code = char_to_code.get(ord(ch))
        if code is not None:
            flush()
            out.append(code)
        elif ch == "@" or ("A" <= ch <= "Z") or ("a" <= ch <= "z"):
            run.append(ch)
        else:
            flush()
            out.append(transform.get(ord(ch), ch))
    flush()
    return "".join(out)


class RefDecodeError(Exception):
    """The first grammar error `ref_decode` meets: its kind and the offset where it starts."""

    def __init__(self, kind: str, offset: int):
        super().__init__(f"{kind} at {offset}")
        self.kind = kind
        self.offset = offset


def ref_decode(enc: str, code_to_char: dict[str, int]) -> str:
    """Exact segment decoding: every uppercase-led segment must be one full code.

    Raises RefDecodeError of kind "unterminated run", "empty run", "stray
    lowercase" or "unknown segment" at the first error.
    """
    out = []
    i = 0
    n = len(enc)
    while i < n:
        ch = enc[i]
        if ch == "@":
            start = i
            i += 1
            buf = []
            while True:
                if i >= n:
                    raise RefDecodeError("unterminated run", start)
                if enc[i] == "@":
                    if i + 1 < n and enc[i + 1] == "@":
                        buf.append("@")
                        i += 2
                    else:
                        i += 1
                        break
                else:
                    buf.append(enc[i])
                    i += 1
            if not buf:
                raise RefDecodeError("empty run", start)
            out.extend(buf)
        elif "A" <= ch <= "Z":
            j = i + 1
            while j < n and "a" <= enc[j] <= "z":
                j += 1
            segment = enc[i:j]
            if segment not in code_to_char:
                raise RefDecodeError("unknown segment", i)
            out.append(chr(code_to_char[segment]))
            i = j
        elif "a" <= ch <= "z":
            raise RefDecodeError("stray lowercase", i)
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def naive_bpe_word(word: str, merges: list[tuple[str, str]]) -> list[str]:
    """Apply the lowest-ranked applicable merge, restarting the rule scan each time."""
    syms = list(word)
    while True:
        for a, b in merges:
            for i in range(len(syms) - 1):
                if syms[i] == a and syms[i + 1] == b:
                    break
            else:
                continue
            # merge every occurrence of this rule, left to right
            merged = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    merged.append(a + b)
                    i += 2
                else:
                    merged.append(syms[i])
                    i += 1
            syms = merged
            break
        else:
            return syms


def naive_tokenize(text: str, merges: list[tuple[str, str]]) -> list[str]:
    """Whitespace-run-preserving naive tokenizer (no byte fallback)."""
    out: list[str] = []
    for i, part in enumerate(re.split(r"(\s+)", text)):
        if not part:
            continue
        if i & 1:
            out.append(part)
        else:
            out.extend(naive_bpe_word(part, merges))
    return out


def ref_bpe_train(corpus, target_vocab: int):
    """Greedy BPE training that recounts every pair of every word before each merge.

    The most frequent pair wins; a tie goes to the lexicographically smallest
    pair. Returns a `BpeModel` only as the container to compare against.
    """
    from translitkit.bpe import BpeModel
    from translitkit.errors import ConfigError

    words: dict[str, int] = {}
    ws_runs: set[str] = set()
    for line in corpus:
        for i, part in enumerate(re.split(r"(\s+)", line)):
            if part and i & 1:
                ws_runs.add(part)
            elif part:
                words[part] = words.get(part, 0) + 1
    if not words and not ws_runs:
        raise ConfigError("cannot train on an empty corpus")
    vocab = sorted({ch for w in words for ch in w} | ws_runs)
    if target_vocab < len(vocab):
        raise ConfigError(f"corpus alphabet has {len(vocab)} symbols, exceeding target vocab {target_vocab}")
    merges: list[tuple[str, str]] = []
    seqs = {w: list(w) for w in words}
    while len(vocab) < target_vocab:
        pairs: dict[tuple[str, str], int] = {}
        for w, syms in seqs.items():
            for i in range(len(syms) - 1):
                pair = (syms[i], syms[i + 1])
                pairs[pair] = pairs.get(pair, 0) + words[w]
        if not pairs:
            break
        top = max(pairs.values())
        a, b = min(p for p, n in pairs.items() if n == top)
        merges.append((a, b))
        vocab.append(a + b)
        for w, syms in seqs.items():
            merged = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    merged.append(a + b)
                    i += 2
                else:
                    merged.append(syms[i])
                    i += 1
            seqs[w] = merged
    return BpeModel(vocab, merges)


def ref_build_tokenizer_optimized(chars, profile, model, strategy: str = "tokenizer_opt"):
    """Tokenize every code of `profile`; order by (tokens, canonical index), take the first len(chars)."""
    from translitkit.codebook import Codebook, CodebookEntry

    chars = list(chars)
    scored = sorted(
        (len(model.tokenize(code)), idx, code) for idx, code in enumerate(profile.iter_codes())
    )
    entries = [
        CodebookEntry(cp, code, rank=i + 1, token_count=n)
        for i, (cp, (n, _, code)) in enumerate(zip(chars, scored))
    ]
    return Codebook(entries, strategy)


_MASK64 = (1 << 64) - 1


def ref_bucket(gram: str, buckets: int) -> int:
    """The language-id n-gram hash, one character at a time: h*31 + ord mod 2**64, mod buckets."""
    h = 0
    for ch in gram:
        h = (h * 31 + ord(ch)) & _MASK64
    return h % buckets


def ref_ngram_ids(texts: list[str], lo: int, hi: int, buckets: int) -> list[tuple[int, int]]:
    """(text index, bucket id) of every n-gram, lo <= n <= hi: by n, then text, then position."""
    return [
        (t, ref_bucket(text[i : i + n], buckets))
        for n in range(lo, hi + 1)
        for t, text in enumerate(texts)
        for i in range(len(text) - n + 1)
    ]


def ref_train_features(
    texts: list[str], lo: int, hi: int, min_count: int, buckets: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per text, the buckets of its grams seen `min_count` times or more in all of
    `texts`, with their summed counts, in first-seen order (by n, then position).

    Grams are identified by their strings, and only the kept ones are hashed.
    """
    per_text = []
    totals: Counter[str] = Counter()
    for text in texts:
        grams: Counter[str] = Counter(
            text[i : i + n] for n in range(lo, hi + 1) for i in range(len(text) - n + 1)
        )
        per_text.append(grams)
        totals.update(grams)
    out = []
    for grams in per_text:
        agg: Counter[int] = Counter()
        for g, c in grams.items():
            if totals[g] >= min_count:
                agg[ref_bucket(g, buckets)] += c
        idx = np.fromiter(agg.keys(), dtype=np.int64, count=len(agg))
        cnt = np.fromiter(agg.values(), dtype=np.float64, count=len(agg))
        out.append((idx, cnt))
    return out


def ref_train(examples: list[tuple[str, str]], params, buckets: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Labels, weights and bias of SGD over `ref_train_features`, examples in order.

    Each step gathers the example's rows for its scores, then subtracts
    ``lr * count * gradient`` from them in place through a second gather.
    """
    labels = sorted({lab for _, lab in examples})
    lo, hi = params.ngram_range
    feats = ref_train_features([text for text, _ in examples], lo, hi, params.min_count, buckets)
    weights = np.zeros((buckets, len(labels)))
    bias = np.zeros(len(labels))
    lr = params.learning_rate
    for _ in range(params.epochs):
        for (idx, cnt), (_, lab) in zip(feats, examples):
            if idx.size:
                scores = bias + cnt @ weights[idx]
            else:
                scores = bias.copy()
            scores -= scores.max()
            p = np.exp(scores)
            p /= p.sum()
            p[labels.index(lab)] -= 1.0
            if idx.size:
                weights[idx] -= lr * cnt[:, None] * p
            bias -= lr * p
    return labels, weights, bias


def ref_predict(text: str, model) -> tuple[str, dict[str, float]]:
    """Label and distribution of one text with plain floats: counts per bucket, scores, softmax."""
    labels = list(model.labels)
    if text == "":
        return ("other" if "other" in labels else labels[0]), {lab: 1 / len(labels) for lab in labels}
    lo, hi = model.ngram_range
    counts: dict[int, int] = {}
    for _, b in ref_ngram_ids([text], lo, hi, model.hash_buckets):
        counts[b] = counts.get(b, 0) + 1
    scores = [float(x) for x in model.bias]
    weights = dense_weights(model)
    for b, c in counts.items():
        row = weights[b]
        for j in range(len(labels)):
            scores[j] += c * float(row[j])
    top = max(scores)
    exps = [math.exp(s - top) for s in scores]
    total = sum(exps)
    dist = {lab: e / total for lab, e in zip(labels, exps)}
    return max(labels, key=dist.__getitem__), dist


def dense_weights(model) -> np.ndarray:
    """The dense (hash_buckets, n_labels) weight matrix of a language-id model, built anew."""
    return model.table[model.index]


def compact_model(labels, ngram_range, hash_buckets: int, weights, bias, params):
    """The `LangIdModel` of the dense matrix `weights`: its rows with any bit set, so that
    a row of -0.0 is kept."""
    from translitkit.langid import LangIdModel

    weights = np.asarray(weights, dtype=np.float64)
    assert weights.shape == (hash_buckets, len(labels))
    ids = np.flatnonzero(weights.view(np.uint64).any(axis=1))
    return LangIdModel(labels, ngram_range, hash_buckets, ids, weights[ids], bias, params)


def v1_bytes(model, weights: np.ndarray | None = None, bias: np.ndarray | None = None) -> bytes:
    """The version-1 `.lid` file of `model`, as its retired writer wrote it with tobytes():
    magic, header, the dense matrix (`weights` if given) and the bias (`bias` if given)."""
    header = {
        "labels": model.labels,
        "ngram_range": list(model.ngram_range),
        "hash_buckets": model.hash_buckets,
        "training_params": dataclasses.asdict(model.training_params),
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    return b"".join([
        b"TKLID\x01\n",
        struct.pack("<I", len(blob)),
        blob,
        np.ascontiguousarray(dense_weights(model) if weights is None else weights, dtype="<f8").tobytes(),
        np.ascontiguousarray(model.bias if bias is None else bias, dtype="<f8").tobytes(),
    ])
