"""`scripts/run_demo.sh` runs end to end: every command and every codebook strategy."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_demo_script(tmp_path):
    proc = subprocess.run(
        ["sh", str(ROOT / "scripts" / "run_demo.sh"), str(tmp_path / "demo")],
        capture_output=True,
        env={**os.environ, "PYTHON": sys.executable, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    out = proc.stdout.decode("utf-8").splitlines()
    for check in ("encode|decode", "encode|decode (CRLF)", "pipeline identity"):
        assert f"{check}: byte-identical" in out
    # The pipeline runs on the first 200 lines of the corpus that `encoded.txt` encodes.
    demo = tmp_path / "demo"
    lines = {
        name: (demo / name).read_bytes().count(b"\n")
        for name in ("sample.txt", "corpus.txt", "encoded.txt")
    }
    assert lines["sample.txt"] == 200
    assert lines["corpus.txt"] == lines["encoded.txt"]
