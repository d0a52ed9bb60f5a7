"""Each CLI command imports only what it runs; the package's public names resolve lazily.

Every process pays for each module it imports, and numpy costs about as much
start-up time as the rest of a command, so a command loads only the modules
it calls. These tests run the real CLI in a fresh interpreter and read
`sys.modules` after it.
"""

import importlib
import os
import pkgutil
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import translitkit
from translitkit import codebook, langid, synth, translit
from translitkit.cli import main

SRC = str(Path(translitkit.__file__).resolve().parent.parent)
# The standard-library modules the table watches besides translitkit's own.
WATCHED = ("hashlib", "json", "numpy", "subprocess")

# Runs the CLI on argv and writes, as the last line of stderr, the watched
# modules and translitkit's submodules (without the package prefix) it left loaded.
PROBE = (
    "import sys\n"
    "from translitkit import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    f"watched = {WATCHED!r}\n"
    "loaded = [m.removeprefix('translitkit.') for m in sys.modules\n"
    "          if m.startswith('translitkit.') or m in watched]\n"
    "print(' '.join(sorted(loaded)), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    lines = synth.mixed_lines(random.Random(7), 60)
    (root / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", str(root / "corpus.txt"), "-o", str(root / "freq.tsv")]) == 0
    assert main(["build-codebook", "--freq", str(root / "freq.tsv"), "--strategy", "basic",
                 "--scripts", "Tibetan,Mongolian,Uyghur", "-o", str(root / "cb.tsv")]) == 0
    encode = translit.translator(codebook.load_path(str(root / "cb.tsv")))
    (root / "encoded.txt").write_text("\n".join(map(encode, lines)) + "\n", encoding="utf-8")
    assert main(["bpe-train", str(root / "encoded.txt"), "--vocab-size", "260", "-o", str(root / "bpe")]) == 0
    examples = [("ཀཁག", "bo"), ("hello there", "other")] * 4
    params = langid.TrainingParams(epochs=1, min_count=1)
    langid.save_model(langid.train(examples, params, hash_buckets=256), str(root / "m.lid"))
    configs = {
        "labeled.txt": "".join(f"__label__{label}\t{text}\n" for text, label in examples),
        "params.cfg": "preset = input\nepochs = 1\nmin_count = 1\nhash_buckets = 256\n",
        "ranges.cfg": "Tibetan = 0F00-0FFF\nMongolian = 1800-18AF\n",
        "profile.cfg": "max_len = 3\n",
        "identity.cfg": "codebook = cb.tsv\ninput_model = m.lid\noutput_model = m.lid\n",
        "external.cfg": "codebook = cb.tsv\ninput_model = m.lid\noutput_model = m.lid\n"
                        "model_stage = external\nmodel_command = cat\n",
    }
    for name, text in configs.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def _python(script: str, argv: list[str] | tuple = (), stdin: str = "", cwd: Path | None = None) -> str:
    """Run `script` in a fresh interpreter that imports this checkout; returns its stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        input=stdin.encode("utf-8"),
        capture_output=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    err = proc.stderr.decode("utf-8")
    assert proc.returncode == 0, err
    return err


# Every command loads these, `--version` nothing else.
BASE = {"cli", "errors"}
# The modules that encode and decode; only a command that runs or reads a codebook loads them.
CODEC = {"codebook", "codespace", "translit"}
BUILD = ["build-codebook", "--freq", "freq.tsv", "--scripts", "Tibetan,Mongolian,Uyghur"]
# Command -> (argv, the modules it loads besides BASE). `textio` loads with
# any input, `bpe` for a codebook build only with a tokenizer, `hashlib` only
# for the codebook digest and `subprocess` only for the external model stage.
COMMANDS = {
    "version": (["--version"], set()),
    "encode": (["encode", "--codebook", "cb.tsv"], {"codebook", "codespace", "textio", "translit"}),
    "decode": (
        ["decode", "--codebook", "cb.tsv"], {"codebook", "codespace", "textio", "translit", "kernel", "numpy"}
    ),
    "verify": (
        ["verify", "corpus.txt", "--codebook", "cb.tsv"],
        {"codebook", "codespace", "textio", "translit", "kernel", "numpy"},
    ),
    "analyze": (
        ["analyze", "corpus.txt", "--ranges", "ranges.cfg", "-o", "freq2.tsv"], {"config", "freqanalysis", "textio"}
    ),
    "build-basic": (
        [*BUILD, "--strategy", "basic", "--profile", "profile.cfg", "-o", "cb2.tsv"],
        {"codebook", "codespace", "config", "freqanalysis", "hashlib", "textio"},
    ),
    "build-tokenizer": (
        [*BUILD, "--strategy", "tokenizer", "--bpe", "bpe", "-o", "cb3.tsv"],
        {"codebook", "codespace", "config", "freqanalysis", "hashlib", "textio", "bpe"},
    ),
    "build-hybrid": (
        [*BUILD, "--strategy", "hybrid", "--bpe", "bpe", "-o", "cb4.tsv"],
        {"codebook", "codespace", "config", "freqanalysis", "hashlib", "textio", "bpe"},
    ),
    "bpe-train": (["bpe-train", "encoded.txt", "--vocab-size", "200", "-o", "bpe2"], {"bpe", "textio"}),
    "bpe-merge": (["bpe-merge", "bpe", "bpe", "-o", "bpe3"], {"bpe", "textio"}),
    "stats": (["stats", "corpus.txt", "encoded.txt", "--bpe", "bpe"], {"bpe", "metrics", "json", "textio"}),
    "stats-codebook": (
        ["stats", "corpus.txt", "encoded.txt", "--bpe", "bpe", "--codebook", "cb.tsv"],
        {"bpe", "metrics", "json", "textio", "codebook", "codespace"},
    ),
    "langid-train": (
        ["langid-train", "labeled.txt", "--params", "params.cfg", "-o", "m2.lid"],
        {"config", "langid", "numpy", "json", "textio"},
    ),
    "detect": (["detect", "--model", "m.lid", "ཀཁ"], {"langid", "numpy", "json", "textio"}),
    "pipeline": (
        ["pipeline", "--config", "identity.cfg"],
        {"config", "pipeline", "langid", "codebook", "codespace", "textio", "translit", "kernel", "numpy", "json"},
    ),
    "pipeline-external": (
        ["pipeline", "--config", "external.cfg"],
        {
            "config", "pipeline", "langid", "codebook", "codespace", "textio", "translit", "kernel", "numpy", "json",
            "subprocess",
        },
    ),
}


def _loaded(root: Path, name: str) -> set[str]:
    argv, _ = COMMANDS[name]
    stdin = (root / ("encoded.txt" if name == "decode" else "corpus.txt")).read_text(encoding="utf-8")
    return set(_python(PROBE, argv, stdin, root).splitlines()[-1].split())


@pytest.mark.parametrize("name", ["version", "analyze", "bpe-train", "bpe-merge", "stats", "langid-train", "detect"])
def test_commands_that_read_no_codebook_load_no_codec(name):
    assert not (BASE | COMMANDS[name][1]) & CODEC


@pytest.mark.parametrize("name", [name for name, (_, extra) in COMMANDS.items() if "numpy" not in extra])
def test_commands_without_a_kernel_do_not_load_numpy(files, name):
    assert _loaded(files, name) == BASE | COMMANDS[name][1]


@pytest.mark.parametrize("name", [name for name, (_, extra) in COMMANDS.items() if "numpy" in extra])
def test_commands_with_a_kernel_load_numpy(files, name):
    assert _loaded(files, name) == BASE | COMMANDS[name][1]


# --- the lazy public API ------------------------------------------------------


def _submodules() -> list[types.ModuleType]:
    names = [m.name for m in pkgutil.iter_modules(translitkit.__path__) if m.name != "__main__"]
    return [importlib.import_module(f"translitkit.{name}") for name in names]


def test_star_import_binds_each_public_name_to_its_submodules_object():
    namespace: dict = {}
    exec("from translitkit import *", namespace)
    assert namespace["__version__"] == translitkit.__version__
    modules = _submodules()
    for name in translitkit.__all__[1:]:
        owners = [m for m in modules if hasattr(m, name)]
        assert owners, name
        assert all(namespace[name] is getattr(m, name) for m in owners), name
        assert getattr(translitkit, name) is namespace[name]
    assert set(translitkit.__all__) <= set(dir(translitkit))


def test_bare_package_loads_no_submodule_until_a_name_is_used():
    script = (
        "import sys\n"
        "import translitkit as tk\n"
        "assert [m for m in sys.modules if m.startswith('translitkit.')] == []\n"
        "assert tk.freqanalysis.scan_file and tk.textio.read_file and tk.to_latin\n"
        "assert 'numpy' not in sys.modules\n"
        "assert tk.langid.predict_many and 'numpy' in sys.modules\n"
    )
    _python(script)


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(translitkit, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        translitkit.no_such_name


def test_from_import_still_imports_submodules():
    namespace: dict = {}
    exec("from translitkit import langid, synth", namespace)
    assert namespace["langid"] is sys.modules["translitkit.langid"]
    assert namespace["synth"] is sys.modules["translitkit.synth"]
