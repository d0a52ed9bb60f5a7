import itertools

import pytest
from hypothesis import given, settings, strategies as st

from translitkit.codespace import (
    DEFAULT_PROFILE,
    FULL_PROFILE,
    LOWER,
    UPPER,
    CodeSpaceProfile,
    capacity,
    enumerate_codes,
    is_valid_code,
)
from translitkit.errors import CapacityError


def test_capacity_per_length():
    assert capacity(1) == 26
    assert capacity(2) == 676
    assert capacity(3) == 17_576
    assert capacity(4) == 456_976


def test_capacity_cumulative_through_four():
    assert sum(capacity(n) for n in range(1, 5)) == 475_254


def test_capacity_rejects_bad_length():
    with pytest.raises(ValueError):
        capacity(0)


@pytest.mark.parametrize("code", ["B", "Aa", "Q", "Zzz", "Fk"])
def test_is_valid_code_accepts(code):
    assert is_valid_code(code)


@pytest.mark.parametrize("code", ["aB", "", "AB", "a", "B1", "Aa ", "Ä", "A@"])
def test_is_valid_code_rejects(code):
    assert not is_valid_code(code)


def test_unrestricted_single_letters():
    profile = CodeSpaceProfile(max_len=1, excluded_single_letters=frozenset())
    assert enumerate_codes(profile, 26) == list(UPPER)


def test_default_profile_162():
    codes = enumerate_codes(DEFAULT_PROFILE, 162)
    singles = [c for c in codes if len(c) == 1]
    doubles = [c for c in codes if len(c) == 2]
    assert len(singles) == 21
    assert len(doubles) == 141
    assert singles[0] == "B" and singles[-1] == "X"
    assert "I" not in singles and "O" not in singles
    assert doubles[0] == "Aa" and doubles[-1] == "Fk"


def total_slots(profile):
    return sum(profile.slots_at(n) for n in range(1, profile.max_len + 1))


def test_full_profile_total():
    assert total_slots(FULL_PROFILE) == 475_254


def test_full_profile_length_boundaries():
    codes = enumerate_codes(FULL_PROFILE, 26 + 676 + 2)
    assert codes[25] == "Z"
    assert codes[26] == "Aa"
    assert codes[26 + 675] == "Zz"
    assert codes[26 + 676] == "Aaa"
    assert codes[26 + 677] == "Aab"


def test_capacity_error_names_ceiling():
    with pytest.raises(CapacityError, match="177"):
        enumerate_codes(DEFAULT_PROFILE, 178)


def test_enumerate_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_codes(DEFAULT_PROFILE, -1)


def test_profile_letters_validated():
    with pytest.raises(ValueError):
        CodeSpaceProfile(excluded_single_letters=frozenset("a"))
    with pytest.raises(ValueError):
        CodeSpaceProfile(max_len=0)


profiles = st.builds(
    CodeSpaceProfile,
    max_len=st.integers(min_value=1, max_value=3),
    excluded_single_letters=st.frozensets(st.sampled_from(UPPER), max_size=25),
    two_char_first_letters=st.lists(st.sampled_from(UPPER), min_size=1, max_size=26).map(tuple),
)


@given(profile=profiles, data=st.data())
def test_enumeration_sorted_unique_valid(profile, data):
    count = data.draw(st.integers(min_value=0, max_value=min(500, total_slots(profile))))
    codes = enumerate_codes(profile, count)
    assert len(codes) == count
    assert len(set(codes)) == count
    keys = [(len(c), c) for c in codes]
    assert keys == sorted(keys)
    assert all(is_valid_code(c) for c in codes)


@given(profile=profiles)
def test_enumeration_matches_slots(profile):
    total = total_slots(profile)
    if total <= 2000:
        assert len(enumerate_codes(profile, total)) == total
    with pytest.raises(CapacityError):
        enumerate_codes(profile, total + 1)


@given(profile=profiles, code=st.text(st.sampled_from("ABCXYZabz1@"), max_size=4))
def test_membership_matches_enumeration(profile, code):
    assert (code in profile) == (code in set(profile.iter_codes()))


# Every valid code of length 1 to 3, in canonical order.
_CODES_UP_TO_3 = [
    first + "".join(tail) for n in range(3) for first in UPPER for tail in itertools.product(LOWER, repeat=n)
]


@settings(max_examples=30, deadline=None)
@given(profile=profiles)
def test_membership_enumeration_and_slots_agree_on_every_code_up_to_length_3(profile):
    codes = list(profile.iter_codes())
    assert [code for code in _CODES_UP_TO_3 if code in profile] == codes
    for n in range(1, 4):
        assert profile.slots_at(n) == sum(len(code) == n for code in codes)
