"""Hashed character-n-gram linear classifier for language routing.

A multinomial logistic model over hashed character n-grams stands in for the
original FastText classifiers: the feature family is the same, and for
disjoint-script separation no embedding is needed. Softmax scores are sums of
per-n-gram weight rows plus a bias.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
import struct
from collections import Counter
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import textio
from .errors import ConfigError, FormatError, TrainingError

DEFAULT_HASH_BUCKETS = 1 << 20

_MAGIC = b"TKLID\x02\n"
_MAGIC_V1 = b"TKLID\x01\n"  # read only: the dense matrix, (hash_buckets, n_labels) float64
# Buckets per slice of a version-1 payload in `load_model`. A 2**20-bucket file loaded in slices of 2**10
# to 2**18 in 34, 28, 26, 28 and 31 ms at best, at tracemalloc peaks of 7.8, 7.9, 8.4, 10.4 and 22.1 MB.
_SLICE = 1 << 12


@dataclass(frozen=True)
class TrainingParams:
    """Hyperparameters that drive training; `seed` is recorded for provenance."""

    learning_rate: float = 0.1
    epochs: int = 25
    ngram_range: tuple[int, int] = (1, 3)
    min_count: int = 5
    seed: int = 0

    @classmethod
    def input_defaults(cls) -> "TrainingParams":
        """Raw-text classifier preset."""
        return cls()

    @classmethod
    def output_defaults(cls) -> "TrainingParams":
        """Transliterated-text classifier preset; longer n-grams capture code patterns."""
        return cls(learning_rate=0.05, epochs=30, ngram_range=(2, 4), min_count=3)


@dataclass
class Prediction:
    label: str
    confidence: float
    distribution: dict[str, float]


def _bucket_index(hash_buckets: int) -> np.ndarray:
    try:
        return np.zeros(hash_buckets, dtype=np.int32)
    except MemoryError:
        raise ConfigError(f"cannot allocate the bucket index of {hash_buckets} buckets") from None


def _any_bit(rows: np.ndarray) -> np.ndarray:
    """Per row of float64 `rows`, whether any bit of it is set: the rows a model keeps.

    A row of -0.0 is kept, so a model's saved bytes depend on its weights alone.
    """
    return rows.view(np.uint64).any(axis=1)


def _check_labels(labels: list[str], error: type[Exception]) -> None:
    if not (isinstance(labels, list) and labels and all(type(x) is str and x for x in labels)
            and len(set(labels)) == len(labels)):
        raise error(f"labels must be a list of distinct non-empty strings, got {labels!r}")


def _check_shape(ngram_range: tuple[int, int], hash_buckets: int, error: type[Exception]) -> None:
    """Refuse, with `error`, an n-gram range or a bucket count that `train` and `load_model` refuse."""
    lo, hi = ngram_range
    for ok, what in (
        (hash_buckets >= 1, f"hash_buckets must be at least 1, got {hash_buckets}"),
        (hash_buckets <= 1 << 32, f"hash_buckets {hash_buckets} is above 2**32, the most uint32 bucket ids can tell"),
        (lo >= 1, f"ngram_min must be at least 1, got {lo}"),
        (lo <= hi, f"ngram_min must not exceed ngram_max, got {lo} > {hi}"),
    ):
        if not ok:
            raise error(what)


class LangIdModel:
    """A classifier held compact: the weight rows with any bit set, and the bias.

    `ids` holds the kept rows' buckets, strictly increasing, and `rows` their weights,
    one row of n_labels per id. Row 0 of `table` is zeros and row r + 1 is bucket
    ids[r]'s; `index` maps each bucket to its row of `table`, and `train` passes it in
    zeroed. A model that `load_model` would refuse raises ConfigError.
    """

    def __init__(
        self,
        labels: list[str],
        ngram_range: tuple[int, int],
        hash_buckets: int,
        ids: np.ndarray,
        rows: np.ndarray,
        bias: np.ndarray,
        training_params: TrainingParams,
        index: np.ndarray | None = None,
    ):
        _check_labels(labels, ConfigError)
        _check_shape(ngram_range, hash_buckets, ConfigError)
        ids, rows, bias = np.asarray(ids), np.asarray(rows, dtype=np.float64), np.asarray(bias, dtype=np.float64)
        if rows.shape != (len(ids), len(labels)) or bias.shape != (len(labels),):
            raise ConfigError(f"shapes {rows.shape} and {bias.shape} do not fit {len(ids)} ids x {len(labels)} labels")
        if ids.size and not (0 <= ids[0] and ids[-1] < hash_buckets and np.all(ids[1:] > ids[:-1])):
            raise ConfigError(f"bucket ids are not strictly increasing and below hash_buckets {hash_buckets}")
        self.labels = labels
        self.ngram_range = ngram_range
        self.hash_buckets = hash_buckets
        self.bias = bias
        self.training_params = training_params
        self.ids = np.asarray(ids, dtype=np.uint32)
        self.table = np.zeros((len(ids) + 1, len(labels)))
        self.table[1:] = rows
        self.index = _bucket_index(hash_buckets) if index is None else index
        self.index[self.ids] = np.arange(1, len(ids) + 1, dtype=np.int32)


_PRIME = np.uint64(31)
# Windows per piece of `predict_many`. Its arrays take some 75 bytes a window,
# about 1.2 MB whatever the length of the texts. Over the CLI blocks of 3,000
# route lines, 2**12 to 2**16 took 18, 16, 16, 17 and 25 ms (2**16: page faults).
_PIECE = 1 << 14


def _code_points(texts: Sequence[str]) -> np.ndarray:
    """The UTF-32 code points of `texts` laid end to end; a lone surrogate is its own value."""
    return np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.uint64)


def _featurize(texts: Sequence[str], lo: int, hi: int, buckets: int) -> tuple[np.ndarray, ...]:
    """Every character n-gram window of `texts`, lo <= n <= hi: ``(owner, ids, start, size)``.

    Per window: its text's index, its bucket id, its start in `_code_points`
    and its n. A gram hashes as ``h = h*31 + code point`` over its characters,
    mod 2**64 (numpy's uint64 arithmetic wraps the same way), then mod
    `buckets`. Windows come by n, then by position in the texts laid end to
    end; no window crosses from one text into the next.
    """
    cp = _code_points(texts)
    total = cp.size
    longest = max(map(len, texts), default=0)
    many = len(texts) > 1
    if many:
        lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
        owner = np.repeat(np.arange(len(texts)), lengths)
        # characters from each position to the end of its text, itself included
        room = np.repeat(np.cumsum(lengths), lengths) - np.arange(total)
    starts, hashes = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.uint64)]
    h = cp
    for n in range(1, min(hi, longest) + 1):
        if n > 1:
            h = h[:-1] * _PRIME + cp[n - 1 :]
        if n < lo:
            continue
        if many:
            at = np.flatnonzero(room[: h.size] >= n)
            starts.append(at)
            hashes.append(h[at])
        else:
            starts.append(np.arange(h.size))
            hashes.append(h)
    start = np.concatenate(starts)
    # starts[0] is the empty seed, so starts[j] holds the windows of n = lo - 1 + j. The
    # smallest dtype that holds hi keeps this array from slowing `predict_many`, which ignores it.
    n_of = np.arange(lo - 1, lo - 1 + len(starts), dtype=np.min_scalar_type(hi))
    size = np.repeat(n_of, [at.size for at in starts])
    owner = owner[start] if many else np.zeros(start.size, dtype=np.intp)
    h, b = np.concatenate(hashes), np.uint64(buckets)
    h -= h // b * b  # h % b for every uint64, in half the time of numpy's uint64 `%`
    return owner, h.view(np.intp), start, size  # the bits of .astype(np.intp), without the copy


def _features(texts: Sequence[str], lo: int, hi: int, min_count: int, buckets: int) -> list[tuple]:
    """Per text, ``(ids, counts)``: the buckets of its windows whose gram occurs
    `min_count` times or more in all of `texts`, by first window (n, then position).

    The hash is not injective, so a gram is told by its code points: code point
    i of a window, plus one (a NUL is not an absent character), sits in bits
    21*(i % 3) of uint64 column i // 3. ``text * buckets + bucket`` fits in
    int64 because `buckets` is at most 2**32, as `train` checks first, and
    there are fewer than 2**31 texts.
    """
    owner, ids, start, size = _featurize(texts, lo, hi, buckets)
    width = int(size.max(initial=1))  # the longest window, not `hi`, which may exceed every text
    cp, cols = _code_points(texts), np.zeros(((width + 2) // 3, ids.size), dtype=np.uint64)
    for i in range(width):
        longer = np.searchsorted(size, i + 1)  # windows come by n, so those of size > i are a tail
        cols[i // 3, longer:] |= (cp[start[longer:] + i] + np.uint64(1)) << np.uint64(21 * (i % 3))
    del cp, start, size  # freed before each sort, where the memory peaks
    order = np.lexsort(cols) if len(cols) > 1 else np.argsort(cols[0])  # any order that groups equal grams
    edges = np.ones(order.size + 1, dtype=bool)  # where a run of equal grams starts, and the end
    edges[1:-1] = np.any([np.diff(col[order]) != 0 for col in cols], axis=0)
    del cols
    runs = np.diff(np.flatnonzero(edges))
    kept = np.empty(order.size, dtype=bool)
    kept[order] = np.repeat(runs >= min_count, runs)
    del order, edges, runs
    # A text's windows keep their order, so each key's first window is its first-seen one.
    keys, first, counts = np.unique(owner[kept] * buckets + ids[kept], return_index=True, return_counts=True)
    seen = np.lexsort((first, keys // buckets))
    text, idx = np.divmod(keys[seen], buckets)
    bounds = np.searchsorted(text, np.arange(len(texts) + 1)).tolist()
    counts = counts[seen].astype(np.float64)
    return [(idx[a:b], counts[a:b]) for a, b in zip(bounds, bounds[1:])]


def _check_params(params: TrainingParams, hash_buckets: int) -> None:
    _check_shape(params.ngram_range, hash_buckets, TrainingError)
    lr = params.learning_rate
    for ok, what in (
        (params.epochs >= 1, f"epochs must be at least 1, got {params.epochs}"),
        (params.min_count >= 1, f"min_count must be at least 1, got {params.min_count}"),
        (0 < lr < math.inf, f"learning_rate must be positive and finite, got {lr}"),
    ):
        if not ok:
            raise TrainingError(what)


def train(
    examples: Iterable[tuple[str, str]],
    params: TrainingParams | None = None,
    labels: Iterable[str] | None = None,
    hash_buckets: int = DEFAULT_HASH_BUCKETS,
) -> LangIdModel:
    """SGD over examples in the given order; deterministic for fixed inputs.

    N-grams occurring fewer than `min_count` times in the whole corpus are
    dropped. Bad parameters or an unallocatable bucket index fail before featurizing.
    """
    params = params or TrainingParams()
    _check_params(params, hash_buckets)
    index = _bucket_index(hash_buckets)
    data = list(examples)
    seen = {lab for _, lab in data}
    label_list = list(labels) if labels is not None else sorted(seen)
    if len(seen) < 2:
        raise TrainingError(f"need examples from at least 2 labels, got {sorted(seen)}")
    stray = seen - set(label_list)
    if stray:
        raise TrainingError(f"examples carry labels outside the label set: {sorted(stray)}")
    _check_labels(label_list, TrainingError)  # as `load_model` asks
    lo, hi = params.ngram_range
    n_labels = len(label_list)
    label_idx = {lab: i for i, lab in enumerate(label_list)}
    per_text = _features([text for text, _ in data], lo, hi, params.min_count, hash_buckets)
    # SGD can change only the rows of buckets some example holds: `held` lists them,
    # sorted, and row r of `table` is bucket held[r]'s. The last row is the bias,
    # which every example holds with a count of 1.
    held, rows_of = np.unique(np.concatenate([idx for idx, _ in per_text]), return_inverse=True)
    rows_of = np.split(rows_of, np.cumsum([idx.size for idx, _ in per_text])[:-1])
    table = np.zeros((held.size + 1, n_labels))
    lr = params.learning_rate
    # Per example: its rows, their counts, the counts and the bias's 1 times the learning rate, its label.
    feats = [(np.append(idx, held.size), cnt, lr * np.append(cnt, 1.0)[:, None], label_idx[lab])
             for idx, (_, cnt), (_, lab) in zip(rows_of, per_text, data)]
    step = np.empty((max(idx.size for idx in rows_of) + 1, n_labels))  # the rows' update
    for _ in range(params.epochs):
        for idx, cnt, lr_cnt, y in feats:
            # an example's rows are distinct, so they scatter back whole
            rows = table.take(idx, axis=0)
            p = cnt @ rows[:-1]  # the n-gram rows, then the bias, as `ref_train` adds them:
            p += rows[-1]  # one product over all the rows rounds differently
            p -= np.maximum.reduce(p)
            np.exp(p, out=p)
            p /= np.add.reduce(p)
            p[y] -= 1.0  # p is now the score gradient
            rows -= np.multiply(lr_cnt, p, out=step[: idx.size])
            table[idx] = rows
    kept, bias = _any_bit(table[:-1]), table[-1].copy()  # a copy: a view would keep the whole table alive
    return LangIdModel(label_list, (lo, hi), hash_buckets, held[kept], table[:-1][kept], bias, params, index)


def predict(text: str, model: LangIdModel) -> Prediction:
    """Softmax over summed n-gram weights; empty text is "other" with a uniform distribution."""
    return predict_many([text], model)[0]


def _pieces(texts: Sequence[str], lo: int, hi: int) -> Iterator[tuple[int, int, list[str], int, int]]:
    """`predict_many`'s pieces of `texts`: ``(i, j, piece, lo, hi)``, the windows of
    n from lo to hi of `piece`, which is texts i to j - 1 or a stretch of text i.

    A piece is a run of whole texts of at most ``_PIECE // (hi - lo + 1)``
    code points with all their windows, or, of a longer text, `_PIECE`
    windows of one n at a time, by n, then by position. Either way each text's
    windows come in `_featurize`'s order.
    """
    hi = min(hi, max(lo, max(map(len, texts))))  # no window is longer than the longest text
    group = _PIECE // (hi - lo + 1)
    ends = list(itertools.accumulate(map(len, texts), initial=0))  # text t spans ends[t] to ends[t + 1]
    i = 0
    while i < len(texts):
        j = max(bisect.bisect_right(ends, ends[i] + group) - 1, i + 1)  # texts i to j - 1 fit a group
        if ends[j] - ends[i] <= group:
            yield i, j, texts[i:j], lo, hi
        else:
            text = texts[i]
            for n in range(lo, hi + 1):
                for a in range(0, len(text) - n + 1, _PIECE):
                    yield i, j, [text[a : a + _PIECE + n - 1]], n, n
        i = j


def _add_rows(run: np.ndarray, owner: np.ndarray, rows: np.ndarray) -> None:
    """Add each of `rows`, in order, to the score of its text: row r to ``run[owner[r]]``.

    Several texts come whole in one piece, so their scores start from 0 and
    one `np.bincount` per label sums them. One text may come in pieces, so its
    running score goes first into ``sum(axis=0)``, which adds row after row as
    `bincount` does. Either way a text's sum takes the same steps as in one pass.
    """
    if len(run) == 1:
        run[0] = np.concatenate((run, rows)).sum(axis=0)
    else:
        for k in range(run.shape[1]):
            run[:, k] = np.bincount(owner, rows[:, k], len(run))


def predict_many(texts: Sequence[str], model: LangIdModel) -> list[Prediction]:
    """`predict` for each text, its n-gram windows taken in `_pieces` of about `_PIECE`.

    Each piece gathers its rows through the model's index and adds them to
    per-text running scores (`_add_rows`), so every sum is the one a single
    pass over all the windows makes, and the arrays are bounded by the piece.
    """
    labels = model.labels
    if not texts:
        return []
    scores = np.zeros((len(texts), len(labels)))
    for i, j, piece, lo, hi in _pieces(texts, *model.ngram_range):
        owner, ids, _, _ = _featurize(piece, lo, hi, model.hash_buckets)
        _add_rows(scores[i:j], owner, model.table.take(model.index.take(ids), axis=0))
    scores += model.bias
    scores -= scores.max(axis=1, keepdims=True)
    p = np.exp(scores)
    p /= p.sum(axis=1, keepdims=True)
    empty_label = "other" if "other" in labels else labels[0]
    out = []
    for text, row, best in zip(texts, p.tolist(), p.argmax(axis=1).tolist()):
        if text == "":
            dist = dict.fromkeys(labels, 1.0 / len(labels))
            out.append(Prediction(empty_label, dist[empty_label], dist))
        else:
            out.append(Prediction(labels[best], row[best], dict(zip(labels, row))))
    return out


def evaluate(examples: Iterable[tuple[str, str]], model: LangIdModel) -> dict:
    """Per-label precision/recall/F1 plus macro F1 over (text, label) pairs."""
    data = list(examples)
    tp: Counter[str] = Counter()
    fp: Counter[str] = Counter()
    fn: Counter[str] = Counter()
    for (_, gold), pred in zip(data, predict_many([text for text, _ in data], model)):
        got = pred.label
        if got == gold:
            tp[gold] += 1
        else:
            fp[got] += 1
            fn[gold] += 1
    per_label = {}
    for lab in model.labels:
        prec = tp[lab] / (tp[lab] + fp[lab]) if tp[lab] + fp[lab] else 0.0
        rec = tp[lab] / (tp[lab] + fn[lab]) if tp[lab] + fn[lab] else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_label[lab] = {"precision": prec, "recall": rec, "f1": f1}
    return {"per_label": per_label, "macro_f1": sum(v["f1"] for v in per_label.values()) / len(per_label)}


def save_model(model: LangIdModel, path: str) -> None:
    """Version 2: magic, JSON header, then little-endian the row count k (uint64),
    the kept rows' bucket ids (k uint32), their rows (k x n_labels float64) and the bias."""
    header = {
        "labels": model.labels,
        "ngram_range": list(model.ngram_range),
        "hash_buckets": model.hash_buckets,
        "training_params": asdict(model.training_params),
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<Q", model.ids.size))
        for array, dtype in ((model.ids, "<u4"), (model.table[1:], "<f8"), (model.bias, "<f8")):
            fh.write(np.ascontiguousarray(array, dtype=dtype))  # the array's own bytes, not a copy


# The JSON types each training parameter may have in a `.lid` header; a float field takes an int too.
_PARAM_TYPES = {f.name: (float, int) if f.type == "float" else (int,) for f in fields(TrainingParams)}
del _PARAM_TYPES["ngram_range"]  # a pair, read by `_int_pair`


def _typed(value: object, types: tuple[type, ...], what: str):
    """`value` if its type is one of `types`, else ValueError; a bool is no int, as in JSON."""
    if type(value) not in types:
        raise ValueError(f"{what} must be {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _int_pair(value: object, what: str) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2 and all(type(n) is int for n in value)):
        raise ValueError(f"{what} must be a list of two integers, got {value!r}")
    return value[0], value[1]


def load_model(path: str) -> LangIdModel:
    """Read a model written by save_model; a truncated or corrupt file raises FormatError."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(_MAGIC))
        if magic not in (_MAGIC, _MAGIC_V1):
            raise ConfigError(f"{path}: not a translitkit language-id model (bad magic)")
        prefix = fh.read(4)
        if len(prefix) != 4:
            raise FormatError(f"{path}: truncated header length")
        (blob_len,) = struct.unpack("<I", prefix)
        if blob_len > file_size - fh.tell():
            raise FormatError(f"{path}: header length {blob_len} runs past the end of the file")
        try:
            header = json.loads(fh.read(blob_len).decode("utf-8"))
            labels = header["labels"]
            ngram_range = _int_pair(header["ngram_range"], "ngram_range")
            buckets = _typed(header["hash_buckets"], (int,), "hash_buckets")
            _check_labels(labels, ValueError)
            _check_shape(ngram_range, buckets, ValueError)
            # older models also record "dim" and "window", which never drove training
            tp = {k: v for k, v in header["training_params"].items() if k not in ("dim", "window")}
            tp["ngram_range"] = _int_pair(tp["ngram_range"], "training_params.ngram_range")
            for key, types in _PARAM_TYPES.items():
                if key in tp:
                    _typed(tp[key], types, f"training_params.{key}")
            params = TrainingParams(**tp)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise FormatError(f"{path}: bad header: {exc}") from exc
        n = len(labels)
        if magic == _MAGIC_V1:  # the dense matrix, read `_SLICE` buckets at a time and kept compact
            _expect_payload(fh, path, file_size, 8 * (buckets + 1) * n, f"{buckets} buckets x {n} labels")
            ids, rows = [], []
            for start in range(0, buckets, _SLICE):
                part = _read(fh, path, (min(_SLICE, buckets - start), n))
                kept = np.flatnonzero(_any_bit(part))
                ids.append(kept + start)
                rows.append(part[kept])
            ids, rows = np.concatenate(ids), np.concatenate(rows)
        else:
            prefix = fh.read(8)
            if len(prefix) != 8:
                raise FormatError(f"{path}: truncated row count")
            (k,) = struct.unpack("<Q", prefix)
            if k > buckets:
                raise FormatError(f"{path}: row count {k} is above hash_buckets {buckets}")
            _expect_payload(fh, path, file_size, 4 * k + 8 * (k + 1) * n, f"{k} rows x {n} labels")
            ids = _read(fh, path, k, "<u4")
            rows = _read(fh, path, (k, n))
        bias = _read(fh, path, n)
    try:
        return LangIdModel(labels, ngram_range, buckets, ids, rows, bias, params)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _expect_payload(fh, path: str, file_size: int, size: int, shape: str) -> None:
    if file_size - fh.tell() != size:
        raise FormatError(f"{path}: payload is {file_size - fh.tell()} bytes, expected {size} for {shape}")


def _read(fh, path: str, shape, dtype: str = "<f8") -> np.ndarray:
    """The next array of `shape` in `fh`, read in place."""
    array = np.empty(shape, dtype=dtype)
    if fh.readinto(array) != array.nbytes:
        raise FormatError(f"{path}: payload ends early; the file shrank while being read")
    return array


def read_labeled(path: str) -> list[tuple[str, str]]:
    """Parse `__label__<tag><TAB><text>` lines into (text, label) pairs."""
    examples = []
    for lineno, (line, _) in enumerate(textio.read_file(path), start=1):
        if not line:
            continue
        if not line.startswith("__label__") or "\t" not in line:
            raise FormatError(f"{path} line {lineno}: expected '__label__<tag>\\t<text>'")
        tag, text = line.split("\t", 1)
        if tag == "__label__":
            raise FormatError(f"{path} line {lineno}: empty tag in '__label__<tag>\\t<text>'")
        examples.append((text, tag[len("__label__") :]))
    return examples
