"""The memory contract: the most each command may allocate, checked in-process.

Each row runs a call under `tracemalloc`, which counts numpy's buffers as well
as Python's objects, and bounds its peak. A child's `ru_maxrss` would not do:
on Linux it starts from its parent's peak, here the test runner's. A bound is
written into its row once and is not loosened later.
"""

from __future__ import annotations

import io
import random
import sys
import tracemalloc

import numpy as np
import pytest

from translitkit import codebook, langid, synth
from translitkit.cli import main

BUCKETS = 1 << 20
LABELS = ["bo", "mn", "ug", "zh", "other"]
DENSE = 8 * BUCKETS * len(LABELS)  # the bytes of one dense weight matrix
ROWS = 36_000  # about the kept rows of the larger route classifier (3.4% of its buckets)
LABELED = synth.labeled_lines(random.Random(0), 150, LABELS)  # the size of the benchmark's build set


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Two version-2 models of 2**20 buckets and a pipeline config that loads them."""
    root = tmp_path_factory.mktemp("memory")
    rng = np.random.default_rng(0)
    for name in ("input.lid", "output.lid"):
        ids = np.sort(rng.choice(BUCKETS, ROWS, replace=False))
        rows = rng.standard_normal((ROWS, len(LABELS)))
        model = langid.LangIdModel(
            LABELS, (1, 3), BUCKETS, rows, np.zeros(len(LABELS)), langid.TrainingParams(), ids=ids
        )
        langid.save_model(model, str(root / name))
    codebook.save_path(codebook.build_basic(range(0x0F40, 0x0F60)), str(root / "cb.tsv"))
    (root / "pipeline.cfg").write_text(
        "codebook = cb.tsv\ninput_model = input.lid\noutput_model = output.lid\nmodel_stage = identity\n",
        encoding="utf-8",
    )
    return root


def _load(root) -> None:
    langid.load_model(str(root / "input.lid"))


def _pipeline(root) -> None:
    assert main(["pipeline", "--config", str(root / "pipeline.cfg")]) == 0


def _train(params: langid.TrainingParams):
    return lambda root: langid.train(LABELED, params, LABELS, BUCKETS)


# Per row: the call, and the models it loads or trains. Its peak stays below a
# quarter of their dense weight matrices: 10.5 MB a model.
CONTRACT = {
    "load_model, version 2": (_load, 1),
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
