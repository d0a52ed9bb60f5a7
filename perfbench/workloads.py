"""Seeded inputs and the CLI command sequence ("pass") of each workload.

Inputs come only from the seed; the program under test sees only the files
written here. Each pass runs the workload's commands as a user would, one
child process at a time, and checks every output.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy
from harness import Cli, OpLog, OpResult, sha256_file, source_digest

from translitkit import codebook, freqanalysis, langid, synth, translit
from translitkit.codespace import DEFAULT_PROFILE, FULL_PROFILE, CodeSpaceProfile

LOW = ("bo", "mn", "ug")
LABELS = ("bo", "mn", "ug", "zh", "other")
LOW_SCRIPTS = "Tibetan,Mongolian,Uyghur"

# Sizes chosen so that one pass is long against process start-up, yet a run
# with its set-up fits the benchmark's time budget on a 2-core machine.
FILTER_PURE_LINES = 13_000
FILTER_MIXED_LINES = 25_000
ROUTE_LINES = 3_000
# Training lines per label of the routing classifiers: the size of the training
# split of acceptance criterion 8, whose classifiers criterion 9 routes with.
MODEL_PER_LABEL = 4_000
BUILD_LINES = 700
BUILD_VOCAB = 220
BUILD_PER_LABEL = 150
# Smaller inputs for the layers a workload does not exercise, used by the traced run.
PROBE_ROUTE_LINES = 400
PROBE_PER_LABEL = 60
PROBE_BPE_LINES = 100
PROBE_MERGES = 50

SETUP_REPEATS = 5

# The workloads BENCHMARK.json lists. pipeline-route is route-detect plus the
# identity `pipeline` over the whole route corpus. It is left out of that list
# because the pipeline is not lossless at this point (see README.md): its runs
# report `correct: false` on a share of the seeds.
WORKLOADS = ("filter-pure", "filter-mixed", "route-detect", "build")
RUNNABLE = WORKLOADS + ("pipeline-route",)
ROUTE_WORKLOADS = ("route-detect", "pipeline-route")

# The acceptance-criterion-1 mix over the 162-character default-profile set.
_EMOJI = "😀🎉🚀🌍😺"
_ASCII_POOL = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,!?-"
_MISC = "·،༔᠅一二三é་​"


def charset_162() -> list[int]:
    """162 code points interleaved across Tibetan, Mongolian and Arabic blocks."""
    pools = [list(range(0x0F00, 0x0F6B)), list(range(0x1800, 0x1850)), list(range(0x0620, 0x0650))]
    chars: list[int] = []
    i = 0
    while len(chars) < 162:
        pool = pools[i % 3]
        if pool:
            chars.append(pool.pop(0))
        i += 1
    return chars


def pure_lines(rng: random.Random, n: int) -> list[str]:
    return [synth.script_line(rng, rng.choice(LOW), 40, 400) for _ in range(n)]


def mixed_lines(rng: random.Random, n: int) -> list[str]:
    pools = [
        (60, [chr(cp) for cp in charset_162()]),
        (20, list(_ASCII_POOL)),
        (6, ["@"]),
        (6, list(_EMOJI)),
        (8, list(_MISC)),
    ]
    weights = [w for w, _ in pools]
    out = []
    for _ in range(n):
        picks = rng.choices(pools, weights=weights, k=rng.randint(0, 80))
        out.append("".join(rng.choice(pool) for _, pool in picks))
    return out


def routed_lines(rng: random.Random, n: int) -> list[tuple[str, str | None]]:
    """`synth.mixed_lines` with each line's generating label kept (None for empty lines)."""
    out: list[tuple[str, str | None]] = []
    for _ in range(n):
        if rng.random() < 0.02:
            out.append(("", None))
        else:
            tag = rng.choice(LABELS)
            out.append((synth.script_line(rng, tag), tag))
    return out


def build_lines(rng: random.Random, n: int) -> list[str]:
    return [synth.script_line(rng, rng.choice(LOW)) for _ in range(n)]


def write_lines(path: Path, lines: list[str]) -> Path:
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    return path


def write_labeled(path: Path, pairs: list[tuple[str, str]]) -> Path:
    return write_lines(path, [f"__label__{tag}\t{text}" for text, tag in pairs])


def encode_pairs(pairs: list[tuple[str, str]], cb: codebook.Codebook) -> list[tuple[str, str]]:
    encode = translit.translator(cb)
    return [(encode(text) if tag in LOW else text, tag) for text, tag in pairs]


def route_codebook() -> codebook.Codebook:
    """The codebook of the routing workloads: every low-resource character `synth` draws."""
    chars = sorted({ord(c) for tag in LOW for c in synth.SCRIPT_CHARS[tag]})
    return codebook.build_basic(chars, DEFAULT_PROFILE)


def basic_codebook(lines: list[str]) -> codebook.Codebook:
    """What `analyze` plus `build-codebook --strategy basic --scripts <low-resource>` yield."""
    table = freqanalysis.scan_corpus(lines)
    chars = freqanalysis.merged_charset(table, scripts=LOW_SCRIPTS.split(","))
    return codebook.build_basic(chars, DEFAULT_PROFILE, table.digest())


@dataclass
class Fixture:
    """Generated inputs of one workload plus the expectations that check its outputs."""

    workload: str
    work: Path
    corpus: Path
    lines: list[str]
    codebook: Path
    encoded: Path
    profile: CodeSpaceProfile
    labeled: list[tuple[str, str]]
    route: list[tuple[str, str | None]]
    bpe_lines: list[str]
    vocab: int
    inputs: dict[str, Path] = field(default_factory=dict)
    models: tuple[Path, Path] | None = None
    route_codebook: Path | None = None  # the codebook the classifiers were trained over
    pipeline_cfg: Path | None = None

    def add_input(self, name: str, path: Path) -> Path:
        self.inputs[name] = path
        return path

    def describe_inputs(self) -> dict:
        """Size and sha256 of every generated input, so two commits can be shown to read the same bytes."""
        out = {}
        for name, path in sorted(self.inputs.items()):
            data = path.read_bytes()
            out[name] = {"bytes": len(data), "lines": data.count(b"\n"), "sha256": sha256_file(path)}
        return out

    def expected_digests(self) -> dict[str, str]:
        """Digests that outputs are checked against; the build pass fixes its final encoding itself."""
        key = "encoded_basic" if self.workload == "build" else "encoded"
        return {"corpus": sha256_file(self.corpus), key: sha256_file(self.encoded)}


def make_fixture(workload: str, seed: int, work: Path, probes: bool, cache: Path) -> Fixture:
    """Generate the workload's inputs from `seed` under `work`.

    `probes` adds the small language-id and BPE inputs that the traced run
    needs for layers the workload's own commands do not reach. The routing
    classifiers do not depend on the seed; they are trained once into `cache`.
    """
    # Both routing workloads read the same lines for a seed.
    rng = random.Random(f"{'route' if workload in ROUTE_WORKLOADS else workload}:{seed}")
    profile = DEFAULT_PROFILE
    labeled: list[tuple[str, str]] = []
    route: list[tuple[str, str | None]] = []
    vocab = 0
    if workload == "filter-pure":
        lines = pure_lines(rng, FILTER_PURE_LINES)
        cb = basic_codebook(lines)
    elif workload == "filter-mixed":
        lines = mixed_lines(rng, FILTER_MIXED_LINES)
        cb = codebook.build_basic(charset_162(), DEFAULT_PROFILE)
    elif workload in ROUTE_WORKLOADS:
        route = routed_lines(rng, ROUTE_LINES)
        lines = [text for text, _ in route]
        cb = route_codebook()
    elif workload == "build":
        lines = build_lines(rng, BUILD_LINES)
        labeled = synth.labeled_lines(rng, BUILD_PER_LABEL, LABELS)
        cb = basic_codebook(lines)
        profile = FULL_PROFILE
        vocab = BUILD_VOCAB
    else:
        raise ValueError(f"unknown workload {workload!r}")

    encode = translit.translator(cb)
    encoded_lines = [encode(line) for line in lines]
    fx = Fixture(
        workload=workload,
        work=work,
        corpus=write_lines(work / "corpus.txt", lines),
        lines=lines,
        codebook=work / "codebook.tsv",
        encoded=write_lines(work / "encoded.txt", encoded_lines),
        profile=profile,
        labeled=labeled,
        route=route,
        bpe_lines=encoded_lines,
        vocab=vocab,
    )
    fx.add_input("corpus.txt", fx.corpus)
    fx.add_input("encoded.txt", fx.encoded)
    codebook.save_path(cb, str(fx.codebook))
    if workload == "build":
        # The build pass makes its own codebooks; this basic one checks its first encode.
        fx.add_input("labeled_raw.txt", write_labeled(work / "labeled_raw.txt", labeled))
        fx.add_input(
            "labeled_enc.txt", write_labeled(work / "labeled_enc.txt", encode_pairs(labeled, cb))
        )
    else:
        fx.add_input("codebook.tsv", fx.codebook)
    if workload in ROUTE_WORKLOADS:
        fx.route_codebook = fx.codebook
        fx.models = route_models(fx, cache)
        fx.add_input("input.lid", fx.models[0])
        fx.add_input("output.lid", fx.models[1])
        # What the output classifier reads after an identity stage: low-resource lines encoded.
        fx.add_input("routed.txt", write_lines(
            work / "routed.txt", [encode(text) if tag in LOW else text for text, tag in route]
        ))
        fx.pipeline_cfg = work / "pipeline.cfg"
        fx.pipeline_cfg.write_text(
            "codebook = codebook.tsv\ninput_model = input.lid\noutput_model = output.lid\n"
            "model_stage = identity\ndecode_mode = strict\nconfidence_threshold = 0.5\n",
            encoding="utf-8",
        )
        fx.add_input("pipeline.cfg", fx.pipeline_cfg)
    if probes:
        probe_rng = random.Random(f"{workload}:{seed}:probes")
        if not fx.route:
            fx.route = routed_lines(probe_rng, PROBE_ROUTE_LINES)
        if not fx.labeled:
            fx.labeled = synth.labeled_lines(probe_rng, PROBE_PER_LABEL, LABELS)
        if not fx.vocab:
            fx.bpe_lines = encoded_lines[:PROBE_BPE_LINES]
            alphabet = {ch for line in fx.bpe_lines for ch in line}
            fx.vocab = len(alphabet) + PROBE_MERGES
        if fx.models is None:
            fx.route_codebook = work / "route-codebook.tsv"
            codebook.save_path(route_codebook(), str(fx.route_codebook))
            fx.models = route_models(fx, cache)
    return fx


_MODEL_NAMES = ("input.lid", "output.lid")


def train_route_models(dest: str, per_label: int, hash_buckets: int) -> None:
    """Train the input and output classifiers into `dest`, from a fixed seed."""
    labeled = synth.labeled_lines(random.Random("route-models"), per_label, LABELS)
    model_in = langid.train(
        labeled, langid.TrainingParams.input_defaults(), labels=LABELS, hash_buckets=hash_buckets
    )
    model_out = langid.train(
        encode_pairs(labeled, route_codebook()), langid.TrainingParams.output_defaults(),
        labels=LABELS, hash_buckets=hash_buckets,
    )
    langid.save_model(model_in, str(Path(dest) / _MODEL_NAMES[0]))
    langid.save_model(model_out, str(Path(dest) / _MODEL_NAMES[1]))


def route_models(fx: Fixture, cache: Path) -> tuple[Path, Path]:
    """Input and output classifiers, copied into the workload's directory.

    They are trained on MODEL_PER_LABEL lines per label with the presets and
    the default hash buckets, over the route codebook. That takes about half a
    minute, so the pair is trained once per version of the package, of the
    benchmark and of Python and numpy, and kept in `cache`. Training runs in a
    child process: on Linux a child's peak RSS starts from its parent's, so a
    large peak here would show in every later command's `peak_rss_mb`.
    """
    bench, src = Path(__file__).resolve().parent, Path(langid.__file__).resolve().parents[1]
    key = hashlib.sha256(json.dumps([
        MODEL_PER_LABEL, langid.DEFAULT_HASH_BUCKETS, source_digest(src / "translitkit"),
        source_digest(bench), platform.python_version(), numpy.__version__,
    ]).encode()).hexdigest()[:16]
    kept = cache / f"lid-{key}"
    if not all((kept / name).is_file() for name in _MODEL_NAMES):
        cache.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="lid-train-", dir=cache))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(bench), str(src)])}
        code = "import sys, workloads; workloads.train_route_models(sys.argv[1], *map(int, sys.argv[2:]))"
        subprocess.run(
            [sys.executable, "-c", code, str(tmp), str(MODEL_PER_LABEL), str(langid.DEFAULT_HASH_BUCKETS)],
            env=env, check=True,
        )
        shutil.rmtree(kept, ignore_errors=True)
        os.replace(tmp, kept)
    paths = (fx.work / _MODEL_NAMES[0], fx.work / _MODEL_NAMES[1])
    for name, path in zip(_MODEL_NAMES, paths):
        shutil.copyfile(kept / name, path)
    return paths


# --- checks -----------------------------------------------------------------


def expect_file(result: OpResult, digest: str, what: str) -> OpResult:
    if result.returncode == 0 and sha256_file(result.stdout_path) != digest:
        result.error = f"output differs from {what}"
    return result


def expect_verify(result: OpResult, total: int) -> OpResult:
    if result.returncode == 0:
        report = result.stdout_path.read_text(encoding="utf-8")
        if f"total: {total}\n" not in report or "failures: 0\n" not in report:
            result.error = f"verify report {report.strip()!r}, expected {total} lines and 0 failures"
    return result


def expect_empty(result: OpResult) -> OpResult:
    if result.returncode == 0 and result.stdout_path.stat().st_size:
        result.error = "non-empty output for empty input"
    return result


def expect_version(result: OpResult) -> OpResult:
    if result.returncode == 0 and not result.stdout_path.read_text().startswith("translitkit "):
        result.error = "unexpected --version output"
    return result


def detect_accuracy(result: OpResult, route: list[tuple[str, str | None]]) -> float | None:
    """Share of non-empty lines whose `detect` label equals the generator's label."""
    if result.returncode != 0:
        return None
    rows = result.stdout_path.read_text(encoding="utf-8").split("\n")
    if rows[-1] != "" or len(rows) - 1 != len(route):
        result.error = f"detect printed {len(rows) - 1} rows for {len(route)} lines"
        return None
    hits = total = 0
    for row, (_, label) in zip(rows, route):
        got, sep, conf = row.partition("\t")
        if not sep or got not in LABELS:
            result.error = f"malformed detect row {row!r}"
            return None
        if label is not None:
            total += 1
            hits += got == label
    return hits / total


# --- workload passes --------------------------------------------------------


def setup_command(fx: Fixture, cli: Cli, log: OpLog, empty: Path, i: int) -> OpResult:
    """The workload's main command on empty input; its wall time is `setup_s`."""
    name = f"setup{i}"
    if fx.workload in ROUTE_WORKLOADS:
        return log.add(expect_empty(cli.run(name, ["pipeline", "--config", str(fx.pipeline_cfg)], empty)))
    if fx.workload == "build":
        return log.add(expect_version(cli.run(name, ["--version"])))
    return log.add(expect_empty(cli.run(name, ["encode", "--codebook", str(fx.codebook)], empty)))


def filter_commands(
    fx: Fixture, cli: Cli, log: OpLog, digests: dict[str, str], cb: Path, encoded: Path
) -> dict[str, float]:
    """encode, decode and verify over the workload's corpus under codebook `cb`.

    `encoded` is the input of decode. When it is the encode output itself (the
    build workload, whose codebook only exists after its pass), the first
    pass fixes the expected encoding and decode checks that it restores.
    """
    raw_bytes = fx.corpus.stat().st_size
    out = encoded if encoded != fx.encoded else None
    enc = log.add(cli.run("encode", ["encode", "--codebook", str(cb)], fx.corpus, out))
    if "encoded" not in digests and enc.returncode == 0:
        digests["encoded"] = sha256_file(enc.stdout_path)
    expect_file(enc, digests.get("encoded", ""), "the expected encoding")
    dec = log.add(expect_file(
        cli.run("decode", ["decode", "--codebook", str(cb)], encoded), digests["corpus"], "the corpus"
    ))
    ver = log.add(expect_verify(
        cli.run("verify", ["verify", str(fx.corpus), "--codebook", str(cb)]), len(fx.lines)
    ))
    return {
        "encode_mb_s": raw_bytes / enc.seconds / 1e6,
        "decode_mb_s": encoded.stat().st_size / dec.seconds / 1e6,
        "verify_mb_s": raw_bytes / ver.seconds / 1e6,
    }


def pipeline_unrestored(result: OpResult, fx: Fixture) -> int | None:
    """Lines the identity pipeline did not return byte for byte.

    The identity pipeline must give back its input unchanged. Any line that
    differs fails the operation; the count is kept as a diagnostic.
    """
    if result.returncode != 0:
        return None
    got = result.stdout_path.read_bytes().decode("utf-8").split("\n")
    if len(got) != len(fx.lines) + 1 or got[-1] != "":
        result.error = f"pipeline printed {len(got) - 1} lines for {len(fx.lines)}"
        return None
    bad = [i for i, (out, line) in enumerate(zip(got, fx.lines)) if out != line]
    if bad:
        result.error = (
            f"{len(bad)} of {len(fx.lines)} lines differ from the input, first line {bad[0] + 1}"
        )
    return len(bad)


def route_commands(fx: Fixture, cli: Cli, log: OpLog) -> tuple[dict, dict]:
    """`detect` with each classifier over what it reads inside the pipeline;
    pipeline-route adds the identity `pipeline` over the corpus."""
    n = len(fx.lines)
    timings: dict = {}
    det: dict = {}
    if fx.workload == "pipeline-route":
        pipe = log.add(cli.run("pipeline", ["pipeline", "--config", str(fx.pipeline_cfg)], fx.corpus))
        det["unrestored_lines"] = pipeline_unrestored(pipe, fx)
        timings["pipeline_lines_s"] = n / pipe.seconds
    det_in = log.add(cli.run("detect", ["detect", "--model", str(fx.models[0])], fx.corpus))
    det["route_accuracy"] = detect_accuracy(det_in, fx.route)
    det_out = log.add(cli.run("detect-output", ["detect", "--model", str(fx.models[1])], fx.inputs["routed.txt"]))
    det["output_route_accuracy"] = detect_accuracy(det_out, fx.route)
    timings["detect_lines_s"] = n / det_in.seconds
    timings["detect_output_lines_s"] = n / det_out.seconds
    return timings, det


def build_commands(fx: Fixture, cli: Cli, log: OpLog, digests: dict[str, str]) -> tuple[dict, dict]:
    """analyze -> basic codebook -> encode -> bpe-train -> tokenizer codebook -> the
    filters under it -> stats -> both language-id classifiers."""
    w = fx.work
    corpus = str(fx.corpus)
    freq, basic, bpe_dir, tokenizer = w / "freq.tsv", w / "basic.tsv", w / "bpe", w / "tokenizer.tsv"
    encoded = w / "encoded-tokenizer.txt"
    configs = Path.cwd() / "configs"
    analyze = log.add(cli.run("analyze", ["analyze", corpus, "-o", str(freq)]))
    build_basic = log.add(cli.run("build-basic", [
        "build-codebook", "--freq", str(freq), "--strategy", "basic", "--scripts", LOW_SCRIPTS,
        "-o", str(basic),
    ]))
    if build_basic.returncode == 0 and basic.read_bytes() != fx.codebook.read_bytes():
        build_basic.error = "basic codebook differs from the in-process build"
    encode_basic = log.add(expect_file(
        cli.run("encode-basic", ["encode", "--codebook", str(basic)], fx.corpus, w / "enc-basic.txt"),
        digests["encoded_basic"],
        "the expected encoding",
    ))
    train = log.add(cli.run("bpe-train", [
        "bpe-train", str(encode_basic.stdout_path), "--vocab-size", str(fx.vocab), "-o", str(bpe_dir)
    ]))
    build_tok = log.add(cli.run("build-tokenizer", [
        "build-codebook", "--freq", str(freq), "--strategy", "tokenizer", "--bpe", str(bpe_dir),
        "--profile", str(configs / "profile-full.cfg"), "--scripts", LOW_SCRIPTS, "-o", str(tokenizer),
    ]))
    timings = filter_commands(fx, cli, log, digests, tokenizer, encoded)
    stats = log.add(cli.run("stats", [
        "stats", corpus, str(encoded), "--bpe", str(bpe_dir), "--codebook", str(tokenizer)
    ]))
    lid_in = log.add(cli.run("langid-train-input", [
        "langid-train", str(fx.inputs["labeled_raw.txt"]), "-o", str(w / "input.lid")
    ]))
    lid_out = log.add(cli.run("langid-train-output", [
        "langid-train", str(fx.inputs["labeled_enc.txt"]), "--params", str(configs / "langid-output.cfg"),
        "-o", str(w / "output.lid"),
    ]))
    det: dict = {}
    if stats.returncode == 0:
        try:
            report = json.loads(stats.stdout_path.read_text(encoding="utf-8"))
            det["token_ratio"], det["file_ratio"] = report["token_ratio"], report["file_ratio"]
        except (ValueError, KeyError) as exc:
            stats.error = f"unreadable stats report: {exc}"
    if build_tok.returncode == 0:
        det["single_token_count"] = codebook.load_path(str(tokenizer)).single_token_count
        det["tokenizer_codebook_sha256"] = sha256_file(tokenizer)
    det["encoded_sha256"] = digests.get("encoded")
    timings.update(
        codebook_build_s=analyze.seconds + build_basic.seconds + build_tok.seconds,
        bpe_train_s=train.seconds,
        stats_s=stats.seconds,
        langid_train_s=lid_in.seconds + lid_out.seconds,
    )
    return timings, det


def run_pass(fx: Fixture, cli: Cli, log: OpLog, digests: dict[str, str]) -> tuple[dict, dict]:
    """One pass of the workload; returns (timed metrics, deterministic values)."""
    first = log.attempted
    if fx.workload == "build":
        timings, det = build_commands(fx, cli, log, digests)
    else:
        timings, det = {}, {}
        if fx.workload in ROUTE_WORKLOADS:
            timings, det = route_commands(fx, cli, log)
        timings.update(filter_commands(fx, cli, log, digests, fx.codebook, fx.encoded))
    timings["pass_s"] = sum(r.seconds for r in log.results[first:])
    return timings, det
