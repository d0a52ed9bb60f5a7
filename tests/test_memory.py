"""The memory contract: the most each command may allocate, checked in-process.

Each row runs a call under `tracemalloc`, which counts numpy's buffers as well
as Python's objects, and bounds its peak. A child's `ru_maxrss` would not do:
on Linux it starts from its parent's peak, here the test runner's. A bound is
written into its row once and is not loosened later.
"""

from __future__ import annotations

import io
import os
import random
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from reference import v1_bytes
from translitkit import bpe, codebook, langid, synth, translit
from translitkit.cli import main
from translitkit.translit import to_latin

BUCKETS = 1 << 20
LABELS = ["bo", "mn", "ug", "zh", "other"]
DENSE = 8 * BUCKETS * len(LABELS)  # the bytes of one dense weight matrix
ROWS = 36_000  # about the kept rows of the larger route classifier (3.4% of its buckets)
LABELED = synth.labeled_lines(random.Random(0), 150, LABELS)  # the size of the benchmark's build set


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Two version-2 models of 2**20 buckets, the first also as a version-1 file, and a
    pipeline config that loads them."""
    root = tmp_path_factory.mktemp("memory")
    rng = np.random.default_rng(0)
    for name in ("input.lid", "output.lid"):
        ids = np.sort(rng.choice(BUCKETS, ROWS, replace=False))
        rows = rng.standard_normal((ROWS, len(LABELS)))
        model = langid.LangIdModel(LABELS, (1, 3), BUCKETS, ids, rows, np.zeros(len(LABELS)), langid.TrainingParams())
        langid.save_model(model, str(root / name))
        if name == "input.lid":
            (root / "input-v1.lid").write_bytes(v1_bytes(model))
    codebook.save_path(codebook.build_basic(range(0x0F40, 0x0F60)), str(root / "cb.tsv"))
    (root / "pipeline.cfg").write_text(
        "codebook = cb.tsv\ninput_model = input.lid\noutput_model = output.lid\nmodel_stage = identity\n",
        encoding="utf-8",
    )
    return root


def _load(name: str):
    return lambda root: langid.load_model(str(root / name))


def _pipeline(root) -> None:
    assert main(["pipeline", "--config", str(root / "pipeline.cfg")]) == 0


def _train(params: langid.TrainingParams):
    return lambda root: langid.train(LABELED, params, LABELS, BUCKETS)


# Per row: the call, and the models it loads or trains. Its peak stays below a
# quarter of their dense weight matrices: 10.5 MB a model.
CONTRACT = {
    "load_model, version 2": (_load("input.lid"), 1),
    "load_model, version 1": (_load("input-v1.lid"), 1),
    "pipeline, empty input": (_pipeline, 2),
    "train, input preset": (_train(langid.TrainingParams.input_defaults()), 1),
    "train, output preset": (_train(langid.TrainingParams.output_defaults()), 1),
}


@pytest.mark.parametrize("row", list(CONTRACT))
def test_peak_allocation_stays_within_its_bound(workspace, monkeypatch, capsys, row):
    call, models = CONTRACT[row]
    bound = models * DENSE // 4
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b""), encoding="utf-8"))
    _pipeline(workspace)  # imports and first-use caches, outside the measurement
    tracemalloc.start()
    try:
        call(workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"{row}: peak {peak:,} bytes, bound {bound:,}"


# The lines of the benchmark's `pure_lines`: script-pure, 40 to 400 characters.
LOW = ("bo", "mn", "ug")


def _pure_lines(n: int) -> list[str]:
    rng = random.Random(n)
    return [synth.script_line(rng, rng.choice(LOW), 40, 400) for _ in range(n)]


@pytest.fixture(scope="module")
def growth_inputs(tmp_path_factory):
    """Inputs of the `GROWTH` rows at both sizes: `pure_lines` pairs, the same lines as one
    line, a BPE model, a codebook, two classifiers and a pipeline config that loads them."""
    root = tmp_path_factory.mktemp("growth")
    cb = codebook.build_basic(sorted({ord(c) for tag in LOW for c in synth.SCRIPT_CHARS[tag]}))
    codebook.save_path(cb, str(root / "cb.tsv"))
    for n in (250, 1000, 4000):
        lines = _pure_lines(n)
        encoded = [to_latin(line, cb) for line in lines]
        (root / f"original-{n}.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        (root / f"encoded-{n}.txt").write_text("".join(line + "\n" for line in encoded), encoding="utf-8")
        (root / f"one-line-{n}.txt").write_text(" ".join(lines) + "\n", encoding="utf-8")
    bpe.save_model(bpe.train(encoded[:200], 100), str(root / "bpe"))
    rng = np.random.default_rng(1)
    for name, ngrams in (("input.lid", (1, 3)), ("output.lid", (2, 4))):
        ids = np.sort(rng.choice(1 << 16, 4000, replace=False))
        rows = rng.standard_normal((ids.size, len(LABELS)))
        model = langid.LangIdModel(LABELS, ngrams, 1 << 16, ids, rows, np.zeros(len(LABELS)), langid.TrainingParams())
        langid.save_model(model, str(root / name))
    (root / "pipeline.cfg").write_text(
        "codebook = cb.tsv\ninput_model = input.lid\noutput_model = output.lid\nmodel_stage = identity\n",
        encoding="utf-8",
    )
    return root


def _stats(root, n: int) -> None:
    assert main(["stats", str(root / f"original-{n}.txt"), str(root / f"encoded-{n}.txt"),
                 "--bpe", str(root / "bpe")]) == 0


def _run_filter(args: list[str], path) -> int:
    """`main(args)` reading stdin from `path` and writing stdout to the null device:
    the bytes of `path`."""
    saved = sys.stdin, sys.stdout
    with open(path, "rb") as raw, open(os.devnull, "w", encoding="utf-8") as sink:
        sys.stdin, sys.stdout = io.TextIOWrapper(raw, encoding="utf-8"), sink
        try:
            assert main(args) == 0
        finally:
            sys.stdin, sys.stdout = saved
    return os.path.getsize(path)


def _encode(root, n: int) -> int:
    return _run_filter(["encode", "--codebook", str(root / "cb.tsv")], root / f"original-{n}.txt")


def _decode(root, n: int) -> int:
    return _run_filter(["decode", "--codebook", str(root / "cb.tsv")], root / f"encoded-{n}.txt")


def _analyze(root, n: int) -> None:
    assert main(["analyze", str(root / f"original-{n}.txt"), "-o", os.devnull]) == 0


def _verify(root, n: int) -> None:
    assert main(["verify", str(root / f"original-{n}.txt"), "--codebook", str(root / "cb.tsv")]) == 0


def _detect(root, n: int) -> int:
    return _run_filter(["detect", "--model", str(root / "input.lid")], root / f"original-{n}.txt")


def _detect_one_line(root, n: int) -> int:
    return _run_filter(["detect", "--model", str(root / "input.lid")], root / f"one-line-{n}.txt")


def _pipeline_lines(root, n: int) -> int:
    return _run_filter(["pipeline", "--config", str(root / "pipeline.cfg")], root / f"original-{n}.txt")


def _decode_string(root, n: int) -> int:
    enc = (root / f"encoded-{n}.txt").read_text(encoding="utf-8")
    translit.decode(enc, codebook.load_path(str(root / "cb.tsv")))
    return len(enc.encode("utf-8"))


@dataclass(frozen=True)
class PerInputByte:
    """A bound of this many bytes of peak growth per byte of input growth."""

    bytes: int


# Per row: the command, its input shape, the two input sizes (one and four times),
# and how many bytes more the peak may take at the larger size: what the command
# holds must not grow with its input. A command that holds its input or output
# whole (one line, one string) may grow by a few bytes per byte of input; such a
# row's call returns its input's size in bytes.
GROWTH = {
    "encode": (_encode, "many lines", (250, 1000), 256 << 10),
    # As for `verify`: 250 lines fill neither a block nor the kernel's kept arrays.
    "decode": (_decode, "many lines", (1000, 4000), 256 << 10),
    "analyze": (_analyze, "many lines", (250, 1000), 256 << 10),
    # The smaller input of 250 lines fills neither a batch nor the kernel's kept arrays.
    "verify": (_verify, "many lines", (1000, 4000), 256 << 10),
    "stats": (_stats, "many lines", (250, 1000), 256 << 10),
    "detect": (_detect, "many lines", (250, 1000), 256 << 10),
    "detect, one line": (_detect_one_line, "one line", (250, 1000), PerInputByte(4)),
    "pipeline": (_pipeline_lines, "many lines", (250, 1000), 256 << 10),
    # Both strings are longer than the kernel's kept arrays, which the smaller fills.
    "translit.decode": (_decode_string, "one many-line string", (1000, 4000), PerInputByte(4)),
}


@pytest.mark.parametrize("row", list(GROWTH))
def test_peak_allocation_does_not_grow_with_the_input(growth_inputs, capsys, row):
    call, shape, sizes, bound = GROWTH[row]
    call(growth_inputs, sizes[0])  # imports and first-use caches, outside the measurement
    peaks, inputs = [], []
    for n in sizes:
        tracemalloc.start()
        try:
            inputs.append(call(growth_inputs, n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    if isinstance(bound, PerInputByte):
        bound = bound.bytes * (inputs[1] - inputs[0])
    growth = peaks[1] - peaks[0]
    assert growth <= bound, f"{row}, {shape}: peaks {peaks[0]:,} and {peaks[1]:,} bytes, bound +{bound:,}"
