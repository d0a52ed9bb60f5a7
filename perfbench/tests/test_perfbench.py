"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from translitkit import codebook  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def small(monkeypatch):
    """Shrinks every workload so a fixture takes well under a second to generate."""
    for name, value in {
        "FILTER_PURE_LINES": 40,
        "FILTER_MIXED_LINES": 60,
        "ROUTE_LINES": 50,
        "MODEL_PER_LABEL": 10,
        "BUILD_LINES": 30,
        "BUILD_PER_LABEL": 10,
        "PROBE_ROUTE_LINES": 20,
        "PROBE_PER_LABEL": 10,
        "PROBE_BPE_LINES": 10,
        "PROBE_MERGES": 5,
    }.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(workloads.langid, "DEFAULT_HASH_BUCKETS", 1 << 10)
    real_train = workloads.langid.train
    monkeypatch.setattr(
        workloads.langid, "train", lambda *a, **k: real_train(*a, **{**k, "hash_buckets": 1 << 10})
    )


def _hashes(workload: str, seed: int, tmp_path: Path) -> dict[str, str]:
    work = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    fx = workloads.make_fixture(workload, seed, work, probes=True, cache=tmp_path / "cache")
    return {name: info["sha256"] for name, info in fx.describe_inputs().items()}


@pytest.mark.parametrize("workload", workloads.RUNNABLE)
def test_same_seed_same_inputs_other_seed_other_inputs(small, tmp_path, workload):
    first = _hashes(workload, 7, tmp_path)
    assert _hashes(workload, 7, tmp_path) == first
    other = _hashes(workload, 8, tmp_path)
    assert other["corpus.txt"] != first["corpus.txt"]


def test_wrong_codebook_counts_as_failed_operation(small, tmp_path):
    fx = workloads.make_fixture("filter-pure", 3, tmp_path, probes=False, cache=tmp_path / "cache")
    right = codebook.load_path(str(fx.codebook))
    chars = [e.codepoint for e in right.entries]
    wrong = tmp_path / "wrong.tsv"
    codebook.save_path(codebook.build_basic(chars[::-1]), str(wrong))
    cli = harness.Cli(ROOT / "src", tmp_path)
    log = harness.OpLog()
    workloads.filter_commands(fx, cli, log, fx.expected_digests(), wrong, fx.encoded)
    assert log.attempted == 3
    names = {r.name for r in log.results if not r.ok}
    assert {"encode", "decode"} <= names
    assert all(r.returncode == 0 for r in log.results)  # wrong output, not a crash
    log.results.clear()
    workloads.filter_commands(fx, cli, log, fx.expected_digests(), fx.codebook, fx.encoded)
    assert log.failed == 0


def test_missing_codebook_is_a_failed_operation(small, tmp_path):
    fx = workloads.make_fixture("filter-mixed", 3, tmp_path, probes=False, cache=tmp_path / "cache")
    cli = harness.Cli(ROOT / "src", tmp_path)
    log = harness.OpLog()
    workloads.filter_commands(fx, cli, log, fx.expected_digests(), tmp_path / "absent.tsv", fx.encoded)
    assert log.failed == 3
    assert all(r.returncode == 2 for r in log.results)


def test_pipeline_line_left_encoded_fails_the_operation(small, tmp_path):
    fx = workloads.make_fixture("pipeline-route", 3, tmp_path, probes=False, cache=tmp_path / "cache")
    out = tmp_path / "pipeline.out"
    result = harness.OpResult("pipeline", 0.1, 0, 0, out, "")
    out.write_bytes(fx.corpus.read_bytes())
    assert workloads.pipeline_unrestored(result, fx) == 0 and result.ok
    encoded = fx.encoded.read_text(encoding="utf-8").split("\n")
    i = next(i for i, (a, b) in enumerate(zip(fx.lines, encoded)) if a != b)
    workloads.write_lines(out, fx.lines[:i] + [encoded[i]] + fx.lines[i + 1 :])
    assert workloads.pipeline_unrestored(result, fx) == 1
    assert not result.ok and f"first line {i + 1}" in result.error


def test_route_models_are_trained_once_and_shared(small, tmp_path, monkeypatch):
    cache, first, second = tmp_path / "cache", tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    fx = workloads.make_fixture("route-detect", 3, first, probes=False, cache=cache)
    monkeypatch.setattr(workloads.subprocess, "run", lambda *a, **k: pytest.fail("trained again"))
    other = workloads.make_fixture("filter-pure", 4, second, probes=True, cache=cache)
    assert [harness.sha256_file(p) for p in other.models] == [harness.sha256_file(p) for p in fx.models]
    assert other.route_codebook.read_bytes() == fx.codebook.read_bytes()


def test_in_process_check_counts_as_an_operation():
    log = harness.OpLog()
    log.check("suite.translit", None)
    log.check("suite.pipeline", "1 of 50 lines differ")
    assert (log.attempted, log.failed) == (2, 1)
    assert log.failures() == ["suite.pipeline: 1 of 50 lines differ"]


def test_ledger_key_names_inputs_and_versions():
    prov = {"source_sha256": "s", "bench_sha256": "b", "python": "3.12.0", "numpy": "2.0.0"}
    record = {"workload": "build", "seed": 1, "trace": 0, "provenance": prov, "inputs": {"a": {"sha256": "x"}}}
    key = harness.Ledger.key(record)
    assert harness.Ledger.key({**record, "inputs": {"a": {"sha256": "y"}}}) != key
    assert harness.Ledger.key({**record, "provenance": {**prov, "numpy": "2.1.0"}}) != key
    assert harness.Ledger.key({**record, "provenance": {**prov, "bench_sha256": "c"}}) != key


def test_ledger_flags_a_changed_deterministic_value(tmp_path):
    ledger = harness.Ledger(tmp_path / "ledger.json")
    assert ledger.check("k", {"route_accuracy": 0.99}) == []
    assert ledger.check("k", {"route_accuracy": 0.99}) == []
    assert ledger.check("k", {"route_accuracy": 0.98}) != []
    assert ledger.check("other", {"route_accuracy": 0.5}) == []


def test_self_times_subtract_children():
    spans = [
        layers.Span(0, "bench.suite", 0.0, 10.0, None, 1),
        layers.Span(1, "pipeline.batch", 1.0, 5.0, 0, 1),
        layers.Span(2, "langid.predict", 1.5, 3.5, 1, 1),
        layers.Span(3, "translit.decode", 6.0, 7.0, 0, 1),
    ]
    assert layers.self_times(spans) == pytest.approx(
        {"bench": 5.0, "pipeline": 2.0, "langid": 2.0, "translit": 1.0}
    )


def test_disabled_tracer_records_nothing():
    tr = layers.Tracer(enabled=False)
    with tr.span("translit.encode"):
        pass
    assert tr.spans == []


def _record(workload: str, values: dict[str, float]) -> str:
    metrics = {
        name: {"value": v, **harness.summarize([v])} for name, v in values.items()
    }
    return json.dumps({"workload": workload, "trace": 0, "metrics": metrics})


def test_compare_reports_deltas_and_verdicts(tmp_path):
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text("\n".join(_record("filter-pure", {"decode_mb_s": d, "pass_s": 2.0}) for d in (4.0, 4.1, 3.9)))
    new.write_text("\n".join(_record("filter-pure", {"decode_mb_s": d, "pass_s": p}) for d, p in ((8.0, 3.0), (8.1, 3.1), (7.9, 2.9))))
    rows = {r["metric"]: r for r in run.compare(old, new, run.metric_table(SPEC))}
    assert rows["decode_mb_s"]["verdict"] == "improved"
    assert rows["decode_mb_s"]["delta"] == pytest.approx(1.0)
    assert rows["pass_s"]["verdict"] == "regressed"
    noisy = tmp_path / "noisy.jsonl"
    noisy.write_text("\n".join(_record("filter-pure", {"decode_mb_s": d}) for d in (2.0, 4.0, 6.0, 8.0)))
    rows = {r["metric"]: r for r in run.compare(old, noisy, run.metric_table(SPEC))}
    assert rows["decode_mb_s"]["verdict"] == "unresolved"


def test_spec_follows_its_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_map_covers_every_metric():
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    mapped = {name for layer in layer_map["layers"].values() for name in layer["metrics"]}
    assert mapped == {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    table = run.metric_table(SPEC)
    for workload, names in layer_map["end_to_end_by_workload"].items():
        assert workload in workloads.RUNNABLE
        assert e2e <= set(names) and set(names) <= set(table)
    for layer in layer_map["layers"].values():
        for metric, where in layer["moves"].items():
            assert all(metric in layer_map["end_to_end_by_workload"][w] for w in where)


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "filter-pure", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert "checkout" in capsys.readouterr().err
