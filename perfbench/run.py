#!/usr/bin/env python3
"""translitkit benchmark: seeded workloads run through the CLI, or traced layer by layer.

Run from the root of a translitkit checkout:

    python3 perfbench/run.py --workload filter-pure --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

With `--trace 0` the workload's commands run as child processes, one at a
time, in passes until `--seconds` have elapsed; every output is checked. With
`--trace 1` an in-process suite calls each module's public functions under
spans, and also runs untraced to measure the tracing overhead. The last line
of stdout is one JSON object: correct, attempted, failed and the metrics
named in BENCHMARK.json (end-to-end ones untraced, per-layer ones traced).
The full record, with provenance, input hashes and every workload-specific
metric, is appended to `--out` as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
DEFAULT_OUT = HERE / "out" / "results.jsonl"

# Metrics recorded per workload besides the BENCHMARK.json ones: name -> (unit, better, bound).
# A deterministic metric has bound 0: any difference is a change, not noise. The timed ones
# spread (quartile distance over median, ten seeds) by 6-14% between runs on a shared
# 2-core x86_64 host, detect_output_lines_s and bpe_train_s the most; 0.25 covers that.
REPORT_METRICS = {
    "error_rate": ("ratio", "lower", 0.0),
    "pipeline_lines_s": ("lines/s", "higher", 0.25),
    "detect_lines_s": ("lines/s", "higher", 0.25),
    "detect_output_lines_s": ("lines/s", "higher", 0.25),
    "route_accuracy": ("ratio", "higher", 0.0),
    "output_route_accuracy": ("ratio", "higher", 0.0),
    "unrestored_lines": ("count", "lower", 0.0),
    "bpe_train_s": ("s", "lower", 0.25),
    "codebook_build_s": ("s", "lower", 0.25),
    "langid_train_s": ("s", "lower", 0.25),
    "stats_s": ("s", "lower", 0.25),
    "token_ratio": ("ratio", "higher", 0.0),
    "file_ratio": ("ratio", "higher", 0.0),
}
DETERMINISTIC = ("route_accuracy", "output_route_accuracy", "unrestored_lines", "token_ratio", "file_ratio")


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_table(spec: dict) -> dict[str, tuple[str, str, float]]:
    table = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    table.update(REPORT_METRICS)
    return table


def run_workload(args, root: Path, spec: dict) -> dict:
    # Both import translitkit, which main() puts on the path first.
    import layers
    import workloads

    src = root / "src"
    out_dir = args.out.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir))
    try:
        t0 = time.perf_counter()
        fx = workloads.make_fixture(
            args.workload, args.seed, work, probes=bool(args.trace), cache=out_dir / "cache"
        )
        generate_s = time.perf_counter() - t0
        cli = harness.Cli(src, work, calibrate=not args.trace)
        log = harness.OpLog()
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": harness.provenance(root, src),
            "inputs": fx.describe_inputs(),
            "generate_s": generate_s,
        }
        problems: list[str] = []
        # Compiles the package's bytecode so no timed child pays for it.
        log.add(workloads.expect_version(cli.run("warmup", ["--version"])))
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-s{args.seed}.jsonl"
            values, det, details = layers.traced_run(fx, cli, log, args.seconds, spans_path)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            record["layer_details"] = details
            record["metrics"] = {
                name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values
            }
            missing = [name for name in units if name not in values]
            if missing:
                problems.append(f"per-layer metrics not measured: {missing}")
        else:
            det, record["metrics"] = measure_end_to_end(fx, cli, log, args.seconds, spec, problems)
        ledger = harness.Ledger(out_dir / "ledger.json")
        problems += [f"not deterministic: {p}" for p in ledger.check(ledger.key(record), det)]
        record["deterministic"] = det
        if cli.references:
            record["reference"] = {"task_s": harness.REFERENCE_S, **harness.summarize(cli.references)}
        record["ops"] = [
            {"name": r.name, "wall_s": r.wall_s, "reference_s": r.reference_s, "maxrss_kb": r.maxrss_kb, "ok": r.ok}
            for r in log.results
        ]
        record["attempted"] = log.attempted
        record["failed"] = log.failed
        record["failures"] = log.failures()
        record["problems"] = problems
        record["correct"] = log.failed == 0 and not problems
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_end_to_end(fx, cli, log, seconds: float, spec: dict, problems: list[str]) -> tuple[dict, dict]:
    """Set-up repeats, then closed-loop passes until `seconds` have elapsed."""
    import workloads

    table = metric_table(spec)
    empty = fx.work / "empty.txt"
    empty.write_bytes(b"")
    setup = [
        workloads.setup_command(fx, cli, log, empty, i).seconds for i in range(workloads.SETUP_REPEATS)
    ]
    digests = fx.expected_digests()
    samples: dict[str, list[float]] = defaultdict(list)
    det: dict = {}
    start = time.perf_counter()
    passes = 0
    while True:
        timings, values = workloads.run_pass(fx, cli, log, digests)
        passes += 1
        for name, value in timings.items():
            samples[name].append(value)
        if passes > 1 and values != det:
            problems.append(f"pass {passes} deterministic results {values} differ from {det}")
        det = values
        if time.perf_counter() - start >= seconds:
            break
    samples["setup_s"] = setup
    samples["peak_rss_mb"] = [log.peak_rss_mb]
    samples["error_rate"] = [log.failed / log.attempted]
    for name in DETERMINISTIC:
        if name in det:
            samples[name] = [det[name]]
    metrics = {}
    for name, vals in samples.items():
        unit, better, _ = table[name]
        stats = harness.summarize(vals)
        metrics[name] = {"value": stats["median"], "unit": unit, "better": better, **stats}
    return det, metrics


def last_line(record: dict, spec: dict) -> dict:
    key = "per_layer" if record["trace"] else "end_to_end"
    metrics = {}
    for m in spec[key]:
        got = record["metrics"].get(m["name"])
        if got is not None:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {
        "correct": record["correct"] and len(metrics) == len(spec[key]),
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": metrics,
    }


# --- compare ----------------------------------------------------------------


def _load_records(path: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec.get("trace"):
                by_workload[rec["workload"]].append(rec)
    return by_workload


def _side(records: list[dict], name: str) -> dict | None:
    """Median and spread of a metric over runs; a single run reports its own passes."""
    runs = [r["metrics"][name] for r in records if name in r.get("metrics", {})]
    if not runs:
        return None
    if len(runs) == 1:
        return runs[0]
    return harness.summarize([r["value"] for r in runs])


def compare(old_path: Path, new_path: Path, table: dict) -> list[dict]:
    """Per workload and metric: both medians, the delta, and a verdict against the bound."""
    old, new = _load_records(old_path), _load_records(new_path)
    rows = []
    for workload in sorted(set(old) & set(new)):
        for name, (unit, better, bound) in table.items():
            a, b = _side(old[workload], name), _side(new[workload], name)
            if a is None or b is None:
                continue
            delta = (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
            worse = -delta if better == "higher" else delta
            if max(a["spread"], b["spread"]) > bound and bound > 0:
                verdict = "unresolved"
            elif bound == 0:
                verdict = "same" if a["median"] == b["median"] else "changed"
            elif worse > bound:
                verdict = "regressed"
            elif -worse > bound:
                verdict = "improved"
            else:
                verdict = "within bound"
            rows.append({
                "workload": workload, "metric": name, "unit": unit, "old": a["median"],
                "new": b["median"], "delta": delta, "bound": bound, "verdict": verdict,
            })
    return rows


def print_compare(rows: list[dict]) -> None:
    print(f"{'workload':15} {'metric':18} {'unit':8} {'old':>12} {'new':>12} {'delta':>8}  verdict")
    for r in rows:
        print(
            f"{r['workload']:15} {r['metric']:18} {r['unit']:8} {r['old']:12.5g} {r['new']:12.5g} "
            f"{r['delta']:+8.1%}  {r['verdict']} (bound {r['bound']:.0%})"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="results file (JSON lines, appended)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"), help="compare two results files")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "translitkit" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of a translitkit checkout (src/translitkit and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = load_spec(root)
    if args.compare:
        print_compare(compare(*args.compare, metric_table(spec)))
        return 0
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.RUNNABLE:
        print(f"error: --workload must be one of {', '.join(workloads.RUNNABLE)}", file=sys.stderr)
        return 2
    record = run_workload(args, root, spec)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for problem in record["failures"] + record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(last_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
