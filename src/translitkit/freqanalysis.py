"""Corpus scanning: per-code-point counts partitioned by Unicode script range."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import IO, BinaryIO, Iterable

from . import textio
from .codebook import check_code_point, check_decimal
from .errors import ConfigError, FormatError, IntegrityError

OTHER = "other"


@dataclass(frozen=True)
class ScriptRange:
    """A named set of inclusive code-point intervals."""

    name: str
    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.name or any(c in self.name for c in "\t\n\r,"):
            raise ValueError(f"bad script name {self.name!r}")
        if self.name == OTHER:
            raise ValueError(f"script name {OTHER!r} is reserved")
        intervals = tuple(sorted((int(lo), int(hi)) for lo, hi in self.ranges))
        for lo, hi in intervals:
            if lo > hi or lo < 0:
                raise ValueError(f"bad interval {lo:#x}-{hi:#x} in {self.name}")
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            if lo <= hi:
                raise ValueError(f"overlapping intervals in script range {self.name}")
        object.__setattr__(self, "ranges", intervals)

    def contains(self, cp: int) -> bool:
        return any(lo <= cp <= hi for lo, hi in self.ranges)


DEFAULT_SCRIPT_RANGES = (
    ScriptRange("Tibetan", ((0x0F00, 0x0FFF),)),
    ScriptRange("Mongolian", ((0x1800, 0x18AF),)),
    ScriptRange("Uyghur", ((0x0600, 0x06FF), (0xFB50, 0xFDFF), (0xFE70, 0xFEFF))),
    ScriptRange("CJK", ((0x4E00, 0x9FFF),)),
)


@dataclass
class FrequencyTable:
    """Code-point counts plus the script each code point was attributed to."""

    counts: dict[int, int] = field(default_factory=dict)
    script_of: dict[int, str] = field(default_factory=dict)
    scripts: frozenset[str] = frozenset()

    @property
    def total_chars(self) -> int:
        return sum(self.counts.values())

    def digest(self) -> str:
        """Short checksum over the (code point, count) pairs; order-independent."""
        import hashlib  # only the codebook build asks for a digest

        blob = "\n".join(f"{cp}:{n}" for cp, n in sorted(self.counts.items()))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def _assign_script(cp: int, ranges: Iterable[ScriptRange]) -> str:
    for rng in ranges:
        if rng.contains(cp):
            return rng.name
    return OTHER


def scan_corpus(lines: Iterable[str], ranges: Iterable[ScriptRange] = DEFAULT_SCRIPT_RANGES) -> FrequencyTable:
    """Count every code point in `lines`; first matching range wins, else "other".

    Newlines are the caller's concern: pass lines without terminators if they
    should not be counted.
    """
    ranges = tuple(ranges)
    char_counts: Counter[str] = Counter()
    for line in lines:
        char_counts.update(line)
    counts = {ord(ch): n for ch, n in char_counts.items()}
    script_of = {cp: _assign_script(cp, ranges) for cp in counts}
    return FrequencyTable(counts, script_of, frozenset(r.name for r in ranges))


def scan_file(path: str, ranges: Iterable[ScriptRange] = DEFAULT_SCRIPT_RANGES) -> FrequencyTable:
    """scan_corpus over a file's lines, terminators not counted; invalid UTF-8 is an InputError."""
    return scan_corpus((text for text, _ in textio.read_file(path)), ranges)


def merged_charset(
    freq: FrequencyTable, min_count: int = 1, scripts: Iterable[str] | None = None
) -> list[int]:
    """In-range code points, most frequent first; ties break by ascending code point.

    `scripts` restricts which script names participate (default: every script
    except "other").
    """
    if scripts is None:
        wanted = None
    else:
        wanted = set(scripts)
        unknown = wanted - freq.scripts
        if unknown:
            known = ", ".join(sorted(freq.scripts)) or "(none)"
            raise ConfigError(f"unknown scripts {sorted(unknown)}; known scripts: {known}")
    chosen = [
        cp
        for cp, n in freq.counts.items()
        if n >= min_count
        and freq.script_of.get(cp) != OTHER
        and (wanted is None or freq.script_of.get(cp) in wanted)
    ]
    chosen.sort(key=lambda cp: (-freq.counts[cp], cp))
    return chosen


def write_tsv(freq: FrequencyTable, out: IO[str]) -> None:
    """Rows `codepoint<TAB>hex<TAB>script<TAB>count`, most frequent first."""
    out.write("#scripts=" + ",".join(sorted(freq.scripts)) + "\n")
    for cp in sorted(freq.counts, key=lambda cp: (-freq.counts[cp], cp)):
        out.write(f"{cp}\tU+{cp:04X}\t{freq.script_of[cp]}\t{freq.counts[cp]}\n")


def read_tsv(src: BinaryIO, name: str = "<frequency tsv>") -> FrequencyTable:
    """Parse the TSV that `write_tsv` writes from a binary stream; `name` labels UTF-8 errors."""
    counts: dict[int, int] = {}
    script_of: dict[int, str] = {}
    scripts: frozenset[str] = frozenset()
    for lineno, (line, _) in enumerate(textio.read_lines(src, name), start=1):
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("#scripts="):
                names = line[len("#scripts=") :]
                scripts = frozenset(n for n in names.split(",") if n)
            continue
        where = f"{name} line {lineno}"
        fields = line.split("\t")
        if len(fields) != 4:
            raise FormatError(f"{where}: expected 4 tab-separated fields")
        try:
            cp = int(fields[0])
            count = int(fields[3])
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from exc
        # Each cell as `write_tsv` writes it, so that a row re-saves as itself.
        check_code_point(cp, fields[0], where)
        check_decimal(fields[0], cp, 0, "code point", where)
        if fields[1] != f"U+{cp:04X}":
            raise FormatError(f"{where}: hex column {fields[1]!r} is not U+{cp:04X}")
        check_decimal(fields[3], count, 1, "count", where)
        if cp in counts:
            raise IntegrityError(f"{where}: duplicate codepoint U+{cp:04X}")
        counts[cp] = count
        script_of[cp] = fields[2]
    scripts = scripts | frozenset(s for s in script_of.values() if s != OTHER)
    return FrequencyTable(counts, script_of, scripts)
