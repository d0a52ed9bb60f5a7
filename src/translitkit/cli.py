"""Command-line surface for the toolkit.

Subcommands: analyze, build-codebook, encode, decode, verify, stats,
bpe-train, bpe-merge, langid-train, detect, pipeline.

stdout carries data only; diagnostics go to stderr as a single
machine-parsable line. Exit codes: 0 success, 1 usage, 2 data/format error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from typing import Callable, Iterable, Iterator

from . import __version__, codebook, textio, translit
from .errors import TranslitError

log = logging.getLogger("translitkit")

FORMAT_VERSIONS = "codebook-tsv=1 bpe-model=1 lid-model=2"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for data errors
        raise _Usage(message)


STDIN = "<stdin>"


@contextlib.contextmanager
def _open_out(path: str | None):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    else:
        yield sys.stdout
        sys.stdout.flush()


def _filter(fn: Callable[[str, int], Iterable[str]]) -> None:
    """stdin -> stdout in blocks of whole lines.

    `fn(block, lineno)` gets each block with the 1-based number of its first
    line and returns the output pieces, written as they come.
    """
    lineno = 1
    for block in textio.read_blocks(sys.stdin.buffer, STDIN):
        sys.stdout.writelines(fn(block, lineno))
        lineno += block.count("\n")
    sys.stdout.flush()


# Each command imports in its body the modules that not every command runs, so
# that `--version` and the filters start without the build-side modules.


def cmd_analyze(args) -> int:
    from . import config, freqanalysis

    ranges = config.load_ranges(args.ranges) if args.ranges else freqanalysis.DEFAULT_SCRIPT_RANGES
    table = freqanalysis.scan_file(args.corpus, ranges)
    with _open_out(args.out) as out:
        freqanalysis.write_tsv(table, out)
    log.info("analyzed %s: %d distinct code points", args.corpus, len(table.counts))
    return EXIT_OK


def cmd_build_codebook(args) -> int:
    from . import config, freqanalysis
    from .codespace import DEFAULT_PROFILE

    with open(args.freq, "rb") as fh:
        table = freqanalysis.read_tsv(fh, args.freq)
    scripts = [s for s in args.scripts.split(",") if s] if args.scripts else None
    chars = freqanalysis.merged_charset(table, min_count=args.min_count, scripts=scripts)
    profile = config.load_profile(args.profile) if args.profile else DEFAULT_PROFILE
    digest = table.digest()
    if args.strategy == "basic":
        cb = codebook.build_basic(chars, profile, digest)
    else:
        if not args.bpe:
            raise _Usage(f"--strategy {args.strategy} requires --bpe <dir>")
        from . import bpe

        model = bpe.load_model(args.bpe)
        if args.strategy == "tokenizer":
            cb = codebook.build_tokenizer_optimized(chars, profile, model, digest)
        else:
            cb = codebook.build_hybrid(chars, profile, model, digest)
    with _open_out(args.out) as out:
        codebook.save(cb, out)
    log.info("built %s codebook: %d chars, %d single-token", cb.strategy, len(cb), cb.single_token_count)
    return EXIT_OK


def cmd_encode(args) -> int:
    cb = codebook.load_path(args.codebook)
    transform = codebook.load_transform(args.transform) if args.transform else None
    if transform:
        log.warning("transform attached: transformed characters are not restorable")
    encode = translit.translator(cb, transform)
    if encode("\n") == "\n" and encode("\r") == "\r":
        # Line ends pass through, so a block encodes to its lines' encodings.
        _filter(lambda block, _: [encode(block)])
    else:  # the text of each line alone; a "\r" before "\n" is its terminator
        _filter(lambda block, _: (encode(text) + end for text, end in textio.split_lines(block)))
    return EXIT_OK


def cmd_decode(args) -> int:
    cb = codebook.load_path(args.codebook)
    warnings_total = 0

    def fn(block: str, lineno: int) -> Iterator[str]:
        nonlocal warnings_total
        text, scans = translit.decode_block(block, cb, args.mode)
        # Each marked line's scan (with its '\r', which passes through) takes its
        # place in the kernel's text. A block with no marked line stays one piece.
        pieces = text.split("\n") if scans else [text]
        for i, out in scans.items():
            if isinstance(out, TranslitError):
                yield "".join(piece + "\n" for piece in pieces[:i])
                raise type(out)(f"{STDIN} line {lineno + i}: {out}", offset=out.offset) from None
            pieces[i] = out.text
            warnings_total += len(out.warnings)
            for w in out.warnings:
                log.warning("%s line %d: %s", STDIN, lineno + i, w)
        yield "\n".join(pieces)

    _filter(fn)
    if warnings_total:
        print(f"decode warnings: {warnings_total}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    cb = codebook.load_path(args.codebook)
    report = translit.verify_roundtrip((text for text, _ in textio.read_file(args.corpus)), cb)
    out = sys.stdout
    out.write(f"total: {report.total}\n")
    out.write(f"failures: {report.failures}\n")
    if report.first_failure_offset is not None:
        out.write(f"first_failure_offset: {report.first_failure_offset}\n")
    out.flush()
    return EXIT_VERIFY if report.failures else EXIT_OK


def cmd_stats(args) -> int:
    from . import bpe, metrics

    model = bpe.load_model(args.bpe)
    method = codebook.load_path(args.codebook).strategy if args.codebook else ""
    report = metrics.lines_report(textio.read_file(args.original), textio.read_file(args.encoded), model, args.lang)
    sys.stdout.write((metrics.format_human([(method, report)]) if args.human else report.to_json()) + "\n")
    sys.stdout.flush()
    return EXIT_OK


def cmd_bpe_train(args) -> int:
    if args.vocab_size < 1:  # checked before the corpus is read
        raise _Usage(f"argument --vocab-size: must be at least 1, got {args.vocab_size}")
    from . import bpe

    model = bpe.train((text for text, _ in textio.read_file(args.corpus)), args.vocab_size)
    bpe.save_model(model, args.out)
    log.info("trained BPE model: %d tokens, %d merges -> %s", len(model.vocab), len(model.merges), args.out)
    return EXIT_OK


def cmd_bpe_merge(args) -> int:
    from . import bpe

    base = bpe.load_model(args.base)
    extra = bpe.load_model(args.extra)
    merged = bpe.merge_vocab(base, extra)
    bpe.save_model(merged, args.out)
    log.info(
        "merged vocabularies: %d + %d -> %d tokens", len(base.vocab), len(extra.vocab), len(merged.vocab)
    )
    return EXIT_OK


def cmd_langid_train(args) -> int:
    from . import config, langid

    examples = langid.read_labeled(args.labeled)
    if args.params:
        params, buckets = config.load_training_params(args.params)
    else:
        params, buckets = langid.TrainingParams.input_defaults(), langid.DEFAULT_HASH_BUCKETS
    model = langid.train(examples, params, hash_buckets=buckets)
    langid.save_model(model, args.out)
    log.info("trained language-id model over %s -> %s", model.labels, args.out)
    return EXIT_OK


def cmd_detect(args) -> int:
    from . import langid

    model = langid.load_model(args.model)

    def rows(texts: list[str]) -> str:
        return "".join(f"{p.label}\t{p.confidence:.6f}\n" for p in langid.predict_many(texts, model))

    if args.text is not None:
        sys.stdout.write(rows([args.text]))
        sys.stdout.flush()
    else:
        _filter(lambda block, _: [rows([text for text, _ in textio.split_lines(block)])])
    return EXIT_OK


def cmd_pipeline(args) -> int:
    from . import config
    from .pipeline import Pipeline

    cfg = config.load_pipeline_config(args.config)
    pl = Pipeline.from_config(cfg)

    def fn(block: str, _: int) -> Iterator[str]:
        lines = list(textio.split_lines(block))
        for (final, trace), (_, end) in zip(pl.batch(text for text, _ in lines), lines):
            if args.trace:
                print(trace.to_json(), file=sys.stderr)
            if trace.error:
                log.warning("line failed: %s", trace.error)
            yield final + end

    _filter(fn)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="translitkit", description=__doc__)
    parser.add_argument("--version", action="store_true", help="print toolkit and format versions")
    parser.add_argument(
        "--log-level",
        type=str.lower,
        choices=("debug", "info", "warning", "error", "critical"),
        default="warning",
        help="stderr log level",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("analyze", help="count code points per script range")
    p.add_argument("corpus")
    p.add_argument("--ranges", help="script ranges config (default: built-in ranges)")
    p.add_argument("-o", "--out", help="output TSV path (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("build-codebook", help="build a char-code mapping from a frequency TSV")
    p.add_argument("--freq", required=True, help="frequency TSV from `analyze`")
    p.add_argument("--strategy", required=True, choices=("basic", "tokenizer", "hybrid"))
    p.add_argument("--bpe", help="BPE model dir (tokenizer/hybrid strategies)")
    p.add_argument("--profile", help="code-space profile config")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--scripts", help="comma-separated script names to map (default: all non-other)")
    p.add_argument("-o", "--out", help="output TSV path (default: stdout)")
    p.set_defaults(func=cmd_build_codebook)

    p = sub.add_parser("encode", help="stdin -> transliterated stdout")
    p.add_argument("--codebook", required=True)
    p.add_argument("--transform", help="lossy char->string table (e.g. pinyin); not restorable")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="transliterated stdin -> restored stdout")
    p.add_argument("--codebook", required=True)
    p.add_argument("--mode", choices=translit.MODES, default="strict")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify", help="round-trip every corpus line; exit 3 on any failure")
    p.add_argument("corpus")
    p.add_argument("--codebook", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="compression report for an original/encoded file pair")
    p.add_argument("original")
    p.add_argument("encoded")
    p.add_argument("--bpe", required=True, help="BPE model dir for token counts")
    p.add_argument("--codebook", help="annotates the report with the codebook strategy")
    p.add_argument("--lang", default="", help="language tag for the report")
    p.add_argument("--human", action="store_true", help="table output instead of JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bpe-train", help="train a BPE vocabulary on a corpus")
    p.add_argument("corpus")
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("-o", "--out", required=True, help="output model directory")
    p.set_defaults(func=cmd_bpe_train)

    p = sub.add_parser("bpe-merge", help="merge two BPE vocabularies (base order first)")
    p.add_argument("base")
    p.add_argument("extra")
    p.add_argument("-o", "--out", required=True, help="output model directory")
    p.set_defaults(func=cmd_bpe_merge)

    p = sub.add_parser("langid-train", help="train a language-id model on __label__ lines")
    p.add_argument("labeled")
    p.add_argument("--params", help="training params config")
    p.add_argument("-o", "--out", required=True, help="output model file")
    p.set_defaults(func=cmd_langid_train)

    p = sub.add_parser("detect", help="predict the language of a text or stdin lines")
    p.add_argument("text", nargs="?", help="text to classify (default: read stdin lines)")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("pipeline", help="classify/encode -> model stage -> classify/restore")
    p.add_argument("--config", required=True)
    p.add_argument("--trace", action="store_true", help="emit per-line JSON traces on stderr")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: Iterable[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except _Usage as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    log.setLevel(args.log_level.upper())
    if hasattr(sys.stdout, "reconfigure"):  # data goes out as UTF-8 with no newline translation
        sys.stdout.reconfigure(encoding="utf-8", newline="\n")
    if args.version:
        print(f"translitkit {__version__} (formats: {FORMAT_VERSIONS})")
        return EXIT_OK
    if not getattr(args, "func", None):
        print("error: usage: a subcommand is required (see --help)", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TranslitError as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())
