"""Process runner, statistics, provenance and the determinism ledger.

Every CLI operation runs as one child process at a time (a closed loop with a
single client), with stdin and stdout redirected to files. The child is
reaped with `os.wait4`, which returns its resource usage, so peak RSS comes
from the kernel and not from sampling.

Calibration: on a shared host the speed of the machine drifts by a third and
more over tens of seconds, which moves every wall time alike. A calibrated
runner therefore runs a fixed reference task (a child that imports numpy and
spins a loop, touching no translitkit code) after each operation, and scales
the operation's wall time by REFERENCE_S over the mean reference time just
before and after it. Timings are then seconds on a machine where the reference
task takes REFERENCE_S; the raw wall times stay in the record.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


REFERENCE_S = 0.25
_REFERENCE_TASK = "import numpy\nx = 0\nfor i in range(500_000):\n    x += i * i\n"


@dataclass
class OpResult:
    name: str
    wall_s: float
    returncode: int
    maxrss_kb: int
    stdout_path: Path | None
    stderr: str
    error: str | None = None  # set by the caller's output check
    reference_s: float = 0.0  # mean reference time around the op; 0 when uncalibrated

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and self.error is None

    @property
    def seconds(self) -> float:
        """Wall time at reference speed when calibrated, else the raw wall time."""
        return self.wall_s * REFERENCE_S / self.reference_s if self.reference_s else self.wall_s


@dataclass
class OpLog:
    """Every operation attempted in one run, in order."""

    results: list[OpResult] = field(default_factory=list)

    def add(self, result: OpResult) -> OpResult:
        self.results.append(result)
        return result

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def peak_rss_mb(self) -> float:
        return max((r.maxrss_kb for r in self.results), default=0) / 1024.0

    def check(self, name: str, error: str | None) -> OpResult:
        """Records an in-process check as an operation; an `error` fails it."""
        return self.add(OpResult(name, 0.0, 0, 0, None, "", error))

    def failures(self) -> list[str]:
        """The first few failed operations, each with its check's message or its exit code and stderr tail."""
        out = []
        for r in self.results:
            if not r.ok:
                detail = r.error or f"exit {r.returncode}: {r.stderr.strip()[-300:]}"
                out.append(f"{r.name}: {detail}")
        return out[:5]


def _spawn(cmd: list[str], env: dict, cwd: Path, stdin, stdout, stderr) -> tuple[float, int, object]:
    """Start one child and reap it; returns (wall seconds, exit code, rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=stdin, stdout=stdout, stderr=stderr, env=env, cwd=cwd)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        proc.returncode = 0  # reaped by wait4; keep Popen from waiting again
    return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage


class Cli:
    """Runs `python -m translitkit` from a source tree, one child at a time."""

    def __init__(self, src: Path, workdir: Path, calibrate: bool = False):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(src)
        # Fixed hashing makes set/dict iteration in the child repeatable.
        self.env["PYTHONHASHSEED"] = "0"
        self.references: list[float] = []
        if calibrate:
            self.reference()

    def reference(self) -> float:
        """Time the reference task once."""
        wall, rc, _ = _spawn(
            [sys.executable, "-c", _REFERENCE_TASK], self.env, self.workdir,
            subprocess.DEVNULL, subprocess.DEVNULL, subprocess.DEVNULL,
        )
        if rc != 0:
            raise RuntimeError(f"reference task exited {rc}")
        self.references.append(wall)
        return wall

    def run(
        self,
        name: str,
        args: list[str],
        stdin_path: Path | None = None,
        stdout_path: Path | None = None,
    ) -> OpResult:
        stdout_path = stdout_path or self.workdir / f"{name}.out"
        stderr_path = self.workdir / f"{name}.err"
        cmd = [sys.executable, "-m", "translitkit", *args]
        stdin_fh = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
        try:
            with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
                wall, rc, usage = _spawn(cmd, self.env, self.workdir, stdin_fh, out, err)
        finally:
            if stdin_path:
                stdin_fh.close()
        stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
        result = OpResult(name, wall, rc, usage.ru_maxrss, stdout_path, stderr)
        if self.references:
            before = self.references[-1]
            result.reference_s = (before + self.reference()) / 2
        return result


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def summarize(values: list[float]) -> dict:
    """Median, quartiles, spread (quartile distance over the median) and sample count."""
    vals = sorted(values)
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}


def source_digest(package: Path) -> str:
    """sha256 over a directory's Python sources, so runs outside git still name the code they measured."""
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git(root: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root: Path, src: Path) -> dict:
    import numpy

    # Outside a git checkout (as when the tree was exported) the source digest names the code.
    sha = _git(root, "rev-parse", "HEAD") if (root / ".git").exists() else None
    dirty = None
    if sha is not None:
        dirty = bool(_git(root, "status", "--porcelain", "--untracked-files=no"))
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(src / "translitkit"),
        "bench_sha256": source_digest(Path(__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class Ledger:
    """Deterministic results keyed by workload, seed, code, inputs and Python and numpy versions.

    A later run of the same code on the same seed must reproduce every value
    exactly; a mismatch marks the run incorrect.
    """

    def __init__(self, path: Path):
        self.path = path

    @staticmethod
    def key(record: dict) -> str:
        """Everything that may change a deterministic value besides the seed: the
        package and benchmark sources, the generated inputs, Python and numpy."""
        prov = record["provenance"]
        inputs = hashlib.sha256(json.dumps(record["inputs"], sort_keys=True).encode()).hexdigest()
        return ":".join([
            record["workload"], str(record["seed"]), f"trace{record['trace']}",
            prov["source_sha256"], prov["bench_sha256"], inputs,
            f"python{prov['python']}", f"numpy{prov['numpy']}",
        ])

    def check(self, key: str, values: dict) -> list[str]:
        data = json.loads(self.path.read_text()) if self.path.exists() else {}
        old = data.get(key)
        if old is None:
            data[key] = values
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
            return []
        return [
            f"{name}: {old.get(name)!r} earlier, {value!r} now"
            for name, value in values.items()
            if name in old and old[name] != value
        ]
