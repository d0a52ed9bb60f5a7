"""Independent reference implementations used as test oracles.

These deliberately share no code with the package: the encoder is a
char-by-char state machine, the decoder parses the wire grammar one character
at a time with exact whole-segment lookup (no greedy search), and the BPE
applier rescans the rule list from the top after every application. The
language-id oracle hashes each n-gram one character at a time and scores one
text at a time in plain floats.
"""

from __future__ import annotations

import math


def ref_encode(text: str, char_to_code: dict[int, str]) -> str:
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
            out.append(ch)
    flush()
    return "".join(out)


def ref_decode(enc: str, code_to_char: dict[str, int]) -> str:
    """Exact segment decoding: every uppercase-led segment must be one full code."""
    out = []
    i = 0
    n = len(enc)
    while i < n:
        ch = enc[i]
        if ch == "@":
            i += 1
            buf = []
            while True:
                if i >= n:
                    raise ValueError(f"unterminated run at {i}")
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
                raise ValueError("empty run")
            out.extend(buf)
        elif "A" <= ch <= "Z":
            j = i + 1
            while j < n and "a" <= enc[j] <= "z":
                j += 1
            segment = enc[i:j]
            if segment not in code_to_char:
                raise KeyError(segment)
            out.append(chr(code_to_char[segment]))
            i = j
        elif "a" <= ch <= "z":
            raise ValueError(f"stray lowercase at {i}")
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
    import re

    out: list[str] = []
    for i, part in enumerate(re.split(r"(\s+)", text)):
        if not part:
            continue
        if i & 1:
            out.append(part)
        else:
            out.extend(naive_bpe_word(part, merges))
    return out


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
    for b, c in counts.items():
        row = model.weights[b]
        for j in range(len(labels)):
            scores[j] += c * float(row[j])
    top = max(scores)
    exps = [math.exp(s - top) for s in scores]
    total = sum(exps)
    dist = {lab: e / total for lab, e in zip(labels, exps)}
    return max(labels, key=dist.__getitem__), dist
