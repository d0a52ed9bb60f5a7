"""Bidirectional char-code mappings: the basic, tokenizer-optimized and hybrid builds.

A codebook is a bijection between source code points and Latin codes. Source
code points may never be ASCII letters or '@', which the wire grammar reserves
for codes and preserved runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, BinaryIO, Iterable

from . import textio
from .codespace import CodeSpaceProfile, DEFAULT_PROFILE, check_capacity, enumerate_codes, is_valid_code
from .errors import ConfigError, FormatError, IntegrityError

if TYPE_CHECKING:  # the model is passed in; encode and decode never load bpe
    from .bpe import BpeModel

STRATEGIES = ("basic", "tokenizer_opt", "hybrid")

_BYTE_TOKEN = re.compile(r"<0x([0-9A-F]{2})>")  # a byte-fallback token
#: The code points the wire grammar keeps for codes and runs: ASCII letters and '@'.
RESERVED = frozenset(range(ord("A"), ord("Z") + 1)) | frozenset(range(ord("a"), ord("z") + 1)) | {ord("@")}
_LEAST = {"rank": 1, "token count": 0}  # the least value of each number of a row
_HEX = re.compile(r"[0-9a-f]*")


def _reserved(cp: int) -> str:
    return f"U+{cp:04X} ({chr(cp)!r}) is reserved by the wire grammar"


def check_code_point(cp: int, cell: str, where: str) -> None:
    """Raise FormatError, prefixed with `where`, unless `cp` (read from `cell`) is a Unicode scalar value."""
    if not 0 <= cp <= 0x10FFFF:
        raise FormatError(f"{where}: code point {cell!r} out of range")
    if 0xD800 <= cp <= 0xDFFF:
        raise FormatError(f"{where}: code point U+{cp:04X} is a surrogate")


def check_decimal(cell: str, n: int, least: int, what: str, where: str) -> None:
    """Raise FormatError, prefixed with `where`, unless `cell` is `str(n)` and `n` is at least `least`.

    A number read from `cell` by `int` may also carry a sign, spaces, leading
    zeros or '_'; only the decimal that `str` writes re-saves as itself.
    """
    if cell != str(n) or n < least:
        raise FormatError(f"{where}: {what} {cell!r} is not a decimal of {least} or more")


@dataclass(frozen=True)
class CodebookEntry:
    codepoint: int
    code: str
    rank: int  # 1 = most frequent
    token_count: int  # tokens for `code` under the qualifying model; 0 = unmeasured


@dataclass
class Codebook:
    entries: list[CodebookEntry]
    strategy: str
    source_freq_digest: str = ""
    char_to_code: dict[int, str] = field(init=False, repr=False, compare=False)
    code_to_char: dict[str, int] = field(init=False, repr=False, compare=False)
    code_to_text: dict[str, str] = field(init=False, repr=False, compare=False)
    # The encoder's and the decode kernel's lookup tables; `translit.translator`
    # and `kernel` build them on first use.
    encode_table: object = field(default=None, init=False, repr=False, compare=False)
    kernel_table: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_header(self.strategy, self.source_freq_digest)
        self.char_to_code, self.code_to_char = _index((f"row {i}", e) for i, e in enumerate(self.entries, 1))
        self.code_to_text = {code: chr(cp) for code, cp in self.code_to_char.items()}

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def single_token_count(self) -> int:
        """How many characters got a single-token code (tokenizer-aware builds)."""
        return sum(1 for e in self.entries if e.token_count == 1)


def _check_header(strategy: str, digest: str, prefix: str = "") -> None:
    """Raise, prefixed with `prefix`, unless `strategy` is known and `digest` is '' or lowercase hex.

    Lowercase hex is what `FrequencyTable.digest` writes, and the header carries
    it whole: `load` gives back the digest `save` wrote.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"{prefix}unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not _HEX.fullmatch(digest):
        raise FormatError(f"{prefix}freq digest {digest!r} is not lowercase hex")


def _index(rows: Iterable[tuple[str, CodebookEntry]], prefix: str = "") -> tuple[dict[int, str], dict[str, int]]:
    """Check each `(place, entry)` row in turn; return `char_to_code` and `code_to_char`.

    These are every rule of a codebook row: the code point is a Unicode scalar
    value outside RESERVED, the code is valid, the rank is 1 or more, the token
    count 0 or more, and no two rows share a character, a code or a rank. An
    error is a TranslitError that starts with `prefix` and the row's place.
    """
    c2l: dict[int, str] = {}
    l2c: dict[str, int] = {}
    at_code: dict[str, str] = {}  # the place of the row that holds each code, and each rank
    at_rank: dict[int, str] = {}
    for place, e in rows:
        cp, code, rank, where = e.codepoint, e.code, e.rank, prefix + place
        check_code_point(cp, f"{cp:X}", where)
        for what, n in (("rank", rank), ("token count", e.token_count)):
            if n < _LEAST[what]:
                raise FormatError(f"{where}: {what} '{n}' is not a decimal of {_LEAST[what]} or more")
        if not is_valid_code(code):
            raise FormatError(f"{where}: invalid code {code!r}")
        if cp in RESERVED:
            raise IntegrityError(f"{where}: {_reserved(cp)}")
        if cp in c2l:
            raise IntegrityError(f"{where}: character U+{cp:04X} already mapped on {at_code[c2l[cp]]}")
        if code in l2c:
            raise IntegrityError(f"{where}: code {code!r} already mapped on {at_code[code]}")
        if rank in at_rank:
            raise IntegrityError(f"{where}: rank {rank} already used on {at_rank[rank]}")
        c2l[cp] = code
        l2c[code] = cp
        at_code[code] = at_rank[rank] = place
    return c2l, l2c


def build_basic(
    chars: Iterable[int],
    profile: CodeSpaceProfile = DEFAULT_PROFILE,
    source_digest: str = "",
) -> Codebook:
    """Assign the i-th code (shortest first) to the i-th most frequent character."""
    chars = list(chars)
    codes = enumerate_codes(profile, len(chars))
    entries = [
        CodebookEntry(cp, code, rank=i + 1, token_count=0)
        for i, (cp, code) in enumerate(zip(chars, codes))
    ]
    return Codebook(entries, "basic", source_digest)


def build_tokenizer_optimized(
    chars: Iterable[int],
    profile: CodeSpaceProfile = DEFAULT_PROFILE,
    model: BpeModel | None = None,
    source_digest: str = "",
    strategy: str = "tokenizer_opt",
) -> Codebook:
    """Prefer codes that the model tokenizes to a single token.

    Single-token codes are handed out in canonical order; if they run out, the
    remaining characters get the lowest-token-count codes still available, ties
    in canonical order. Each entry records its code's token count.
    """
    if model is None:
        raise ConfigError("tokenizer-optimized build requires a BPE model")
    chars = list(chars)
    check_capacity(profile, len(chars))
    if not chars:
        return Codebook([], strategy, source_digest)
    singles = _single_token_codes(profile, model)
    counts = dict.fromkeys(singles, 1)
    assigned = singles[: len(chars)]
    need = len(chars) - len(assigned)
    if need:
        # Every other code has 2 or more tokens, so the first `need` codes with
        # exactly 2 end the search.
        multis: list[tuple[int, int, str]] = []
        twos = 0
        for idx, code in enumerate(profile.iter_codes()):
            if code in counts:
                continue
            n = len(model.tokenize(code))
            counts[code] = n
            multis.append((n, idx, code))
            twos += n == 2
            if twos == need:
                break
        multis.sort()
        assigned += [code for _, _, code in multis[:need]]
    entries = [
        CodebookEntry(cp, code, rank=i + 1, token_count=counts[code])
        for i, (cp, code) in enumerate(zip(chars, assigned))
    ]
    return Codebook(entries, strategy, source_digest)


def _single_token_codes(profile: CodeSpaceProfile, model: BpeModel) -> list[str]:
    """Every code of `profile` that `model` tokenizes to one token, in canonical order.

    A single letter is always one token. A longer code is one token only when
    its symbols merge into a single merge result, which is a vocab entry that
    spells the code, with `<0xXX>` for a letter the byte fallback decomposed.
    So the candidates are the single letters plus the vocab entries that spell
    a code once `<0xXX>` is read back; `tokenize` confirms each one.
    """
    candidates = set(profile.single_letters())
    for token in model.vocab:
        code = _BYTE_TOKEN.sub(lambda m: chr(int(m.group(1), 16)), token)
        if len(code) > 1 and code in profile and len(model.tokenize(code)) == 1:
            candidates.add(code)
    return sorted(candidates, key=lambda code: (len(code), code))


def build_hybrid(
    chars: Iterable[int],
    profile: CodeSpaceProfile = DEFAULT_PROFILE,
    model: BpeModel | None = None,
    source_digest: str = "",
) -> Codebook:
    """Same mapping as the tokenizer-optimized build; pairs with a merged vocabulary."""
    return build_tokenizer_optimized(chars, profile, model, source_digest, strategy="hybrid")


def save(cb: Codebook, out: IO[str]) -> None:
    """TSV: header `#strategy=<s> freq_digest=<hex>`, rows codepoint_hex/code/rank/token_count."""
    out.write(f"#strategy={cb.strategy} freq_digest={cb.source_freq_digest}\n")
    for e in cb.entries:
        out.write(f"{e.codepoint:04X}\t{e.code}\t{e.rank}\t{e.token_count}\n")


def load(src: BinaryIO, name: str = "<codebook>") -> Codebook:
    """Parse the TSV that `save` writes from a binary stream; `name` labels every error."""
    lines = textio.read_lines(src, name)
    header = next(lines, ("", ""))[0]
    if not header.startswith("#strategy="):
        raise FormatError(f"{name} line 1: expected header '#strategy=<s> freq_digest=<hex>'")
    fields = dict(part.split("=", 1) for part in header[1:].split(" ") if "=" in part)
    strategy, digest = fields.get("strategy", ""), fields.get("freq_digest", "")
    _check_header(strategy, digest, f"{name} line 1: ")
    entries: list[CodebookEntry] = []

    def rows():
        for lineno, (line, _) in enumerate(lines, start=2):
            if not line or line.startswith("#"):
                continue
            where = f"{name} line {lineno}"
            cols = line.split("\t")
            if len(cols) != 4:
                raise FormatError(f"{where}: expected 4 tab-separated fields")
            try:
                e = CodebookEntry(int(cols[0], 16), cols[1], int(cols[2]), int(cols[3]))
            except ValueError as exc:
                raise FormatError(f"{where}: {exc}") from exc
            # `_index` checks the row's rules first, so that a cell such as '-41' reads as out
            # of range; then each number must read as `save` writes it, to re-save as itself.
            yield f"line {lineno}", e
            if cols[0] != f"{e.codepoint:04X}":
                raise FormatError(f"{where}: code point {cols[0]!r} is not written as {e.codepoint:04X}")
            for what, cell, n in (("rank", cols[2], e.rank), ("token count", cols[3], e.token_count)):
                if cell != str(n):
                    raise FormatError(f"{where}: {what} {cell!r} is not a decimal of {_LEAST[what]} or more")
            entries.append(e)

    _index(rows(), f"{name} ")
    return Codebook(entries, strategy, digest)


def save_path(cb: Codebook, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        save(cb, fh)


def load_path(path: str) -> Codebook:
    with open(path, "rb") as fh:
        return load(fh, path)


def load_transform(path: str) -> dict[int, str]:
    """Load a lossy char->string table (e.g. hanzi to pinyin): `codepoint_hex<TAB>replacement`.

    Output of a transform is not restorable; encoders treat it as plain text. A key
    the encoder could never apply, a surrogate or one of the reserved `[A-Za-z@]`,
    is an error naming its line.
    """
    table: dict[int, str] = {}
    for lineno, (line, _) in enumerate(textio.read_file(path), start=1):
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 2 or not cols[1]:
            raise FormatError(f"{path} line {lineno}: expected 'codepoint_hex<TAB>replacement'")
        try:
            cp = int(cols[0], 16)
        except ValueError as exc:
            raise FormatError(f"{path} line {lineno}: {exc}") from exc
        check_code_point(cp, cols[0], f"{path} line {lineno}")
        if cp in RESERVED:
            raise IntegrityError(f"{path} line {lineno}: {_reserved(cp)}")
        if cp in table:
            raise IntegrityError(f"{path} line {lineno}: duplicate codepoint U+{cp:04X}")
        table[cp] = cols[1]
    return table
