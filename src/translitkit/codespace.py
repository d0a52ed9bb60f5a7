"""Structured Latin code space: validation, capacity, shortest-first enumeration.

A code is one uppercase letter followed by zero or more lowercase letters.
Uppercase letters therefore delimit codes inside any concatenation, which is
what makes greedy decoding unambiguous without a prefix-free code set.
"""

from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass
from typing import Iterator

from .errors import CapacityError

UPPER = string.ascii_uppercase
LOWER = string.ascii_lowercase

_CODE_RE = re.compile(r"[A-Z][a-z]*")


def is_valid_code(s: str) -> bool:
    """True iff `s` is one uppercase ASCII letter followed by lowercase ASCII letters."""
    return _CODE_RE.fullmatch(s) is not None


def capacity(length: int) -> int:
    """Number of pattern codes of exactly `length`, with no profile restrictions.

    One of 26 uppercase first letters times 26^(length-1) lowercase tails.
    """
    if length < 1:
        raise ValueError(f"code length must be >= 1, got {length}")
    return 26 * 26 ** (length - 1)


@dataclass(frozen=True)
class CodeSpaceProfile:
    """Restricts and orders the code space used for codebook assignment.

    `excluded_single_letters` removes letters from the length-1 codes only;
    `two_char_first_letters` restricts the first letter of length-2 codes only.
    Lengths 3+ are unrestricted; `first_letters` states this rule, and every
    other method reads it. Both sets are normalised so that enumeration order
    is always (length, text) ascending, independent of input order.
    """

    max_len: int = 2
    excluded_single_letters: frozenset[str] = frozenset("AIOYZ")
    two_char_first_letters: tuple[str, ...] = tuple("ABCDEF")

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        excluded = frozenset(self.excluded_single_letters)
        firsts = tuple(sorted(set(self.two_char_first_letters)))
        for letter in itertools.chain(excluded, firsts):
            if len(letter) != 1 or letter not in UPPER:
                raise ValueError(f"profile letters must be single uppercase A-Z, got {letter!r}")
        object.__setattr__(self, "excluded_single_letters", excluded)
        object.__setattr__(self, "two_char_first_letters", firsts)

    def first_letters(self, length: int) -> str:
        """The letters that start this profile's codes of exactly `length`, in order; '' past `max_len`."""
        if length < 1 or length > self.max_len:
            return ""
        if length == 1:
            return "".join(c for c in UPPER if c not in self.excluded_single_letters)
        return "".join(self.two_char_first_letters) if length == 2 else UPPER

    def single_letters(self) -> list[str]:
        return list(self.first_letters(1))

    def slots_at(self, length: int) -> int:
        """Codes of exactly `length` this profile can emit."""
        firsts = self.first_letters(length)
        return len(firsts) * 26 ** (length - 1) if firsts else 0

    def __contains__(self, code: str) -> bool:
        """True iff `code` is one of the codes `iter_codes` yields."""
        return is_valid_code(code) and code[0] in self.first_letters(len(code))

    def iter_codes(self) -> Iterator[str]:
        """All codes of this profile, shortest first, lexicographic within a length."""
        for length in range(1, self.max_len + 1):
            for first in self.first_letters(length):
                for tail in itertools.product(LOWER, repeat=length - 1):
                    yield first + "".join(tail)


#: The paper-scale profile: 21 single-letter codes (B-X minus I/O) plus
#: two-letter codes starting A-F. 162 codes end at "Fk".
DEFAULT_PROFILE = CodeSpaceProfile()

#: Unrestricted space up to length 4: 475,254 codes in total.
FULL_PROFILE = CodeSpaceProfile(
    max_len=4, excluded_single_letters=frozenset(), two_char_first_letters=tuple(UPPER)
)


def check_capacity(profile: CodeSpaceProfile, count: int) -> None:
    """Raise CapacityError naming the ceiling when `count` exceeds what `profile` can provide."""
    total = 0
    for length in range(1, profile.max_len + 1):  # until `count` fits: a long max_len holds ~26**max_len
        total += profile.slots_at(length)
        if total >= count:
            return
    raise CapacityError(f"requested {count} codes but the profile holds at most {total} (max_len={profile.max_len})")


def enumerate_codes(profile: CodeSpaceProfile, count: int) -> list[str]:
    """First `count` codes of `profile` in canonical order; see `check_capacity`."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    check_capacity(profile, count)
    return list(itertools.islice(profile.iter_codes(), count))
