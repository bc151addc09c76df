"""Jordan types, digit vectors and character arithmetic."""

import math
import random

import pytest

from unipjordan.characters import (
    Character,
    char_add,
    char_dim,
    char_dual,
    char_tensor,
    char_twist,
    weyl_character,
)
from unipjordan.core import (
    PRIME_LIMIT,
    DigitVector,
    DomainError,
    JordanType,
    base_p_digits,
    check_prime,
    is_prime,
    nu_p,
    parse_partition,
)


def test_prime_validation():
    for p in (2, 3, 5, 7, 11, 101):
        assert is_prime(p)
        check_prime(p)
    for bad in (-3, 0, 1, 4, 9, 15, 1001):
        assert not is_prime(bad)
        with pytest.raises(DomainError):
            check_prime(bad)
    for n in range(10 ** 5):
        by_trial_division = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == by_trial_division, n
    assert check_prime(2 ** 61 - 1) == 2 ** 61 - 1
    # a strong pseudoprime to every prime base up to 31: only base 37 rejects it
    assert not is_prime(3825123056546413051)
    with pytest.raises(DomainError):
        check_prime(3825123056546413051)
    # beyond the proven range of the twelve bases primality is not guessed
    with pytest.raises(DomainError) as err:
        check_prime(PRIME_LIMIT + 2)
    assert "\n" not in str(err.value)
    with pytest.raises(DomainError, match="only below"):
        is_prime(PRIME_LIMIT)


def test_jordan_type_canonical_form():
    t = JordanType.from_blocks([(1, 2), (5, 3), (5, 12), (2, 1)], 5)
    assert t.blocks == ((5, 15), (2, 1), (1, 2))
    assert str(t) == "5^15 2 1^2"
    assert t.dim == 79
    assert t.num_blocks == 18
    assert t.multiplicity(5) == 15
    assert t.size_p_multiplicity == 15
    assert t.max_size == 5


def test_jordan_type_empty_and_validation():
    empty = JordanType((), 3)
    assert empty.dim == 0 and str(empty) == "0"
    with pytest.raises(DomainError):
        JordanType(((0, 1),), 3)
    with pytest.raises(DomainError):
        JordanType(((2, 0),), 3)
    with pytest.raises(DomainError):
        JordanType(((2, 1), (3, 1)), 3)  # not descending
    with pytest.raises(DomainError):
        JordanType(((2, 1),), 4)  # 4 is not prime


def test_jordan_type_add_and_mismatch():
    a = JordanType.from_sizes([3, 1], 3)
    b = JordanType.from_sizes([3], 3)
    assert str(a.add(b)) == "3^2 1"
    with pytest.raises(DomainError):
        a.add(JordanType.from_sizes([3], 5))


@pytest.mark.parametrize("text,expect", [
    ("15 9 3", ((15, 1), (9, 1), (3, 1))),
    ("15,9,3", ((15, 1), (9, 1), (3, 1))),
    ("5^15 1^3", ((5, 15), (1, 3))),
    ("2^2,6", ((6, 1), (2, 2))),
])
def test_parse_partition_forms(text, expect):
    assert parse_partition(text, 5).blocks == expect


def test_parse_partition_rejects_junk():
    for bad in ("x", "3^", "^2", "0", "3^0", "-1"):
        with pytest.raises(DomainError):
            parse_partition(bad, 5)


def test_digits_examples():
    assert base_p_digits(14, 5).digits == (4, 2)
    assert base_p_digits(0, 7).digits == ()
    assert base_p_digits(44, 5).digits == (4, 3, 1)


def test_digits_round_trip():
    rng = random.Random(1)
    for p in (2, 3, 5, 7, 11):
        boundary = []
        scale = 1
        while scale <= 10 ** 6:
            boundary += [scale - 1, scale, scale + 1]
            scale *= p
        samples = list(range(200)) + boundary + \
            [rng.randrange(10 ** 6 + 1) for _ in range(500)] + [10 ** 6]
        for n in samples:
            assert base_p_digits(n, p).weight() == n


def test_digit_vector_validation():
    with pytest.raises(DomainError):
        DigitVector((5,), 5)
    with pytest.raises(DomainError):
        DigitVector((1, 0), 5)  # trailing zero
    dv = base_p_digits(44, 5)
    assert dv[0] == 4 and dv[2] == 1 and dv[17] == 0
    assert len(dv) == 3


def test_nu_p():
    assert nu_p(1, 5) == 0
    assert nu_p(50, 5) == 2
    assert nu_p(8, 2) == 3
    with pytest.raises(DomainError):
        nu_p(0, 5)


def test_character_symmetry_enforced():
    with pytest.raises(DomainError):
        Character.from_dict({1: 1})
    with pytest.raises(DomainError):
        Character.from_dict({2: 1, -2: 2})
    for items, why in [([(0, 1), (0, 1)], "duplicate"), ([(0, 0)], "positive"),
                       ([(1, 1), (-1, 1)], "not sorted")]:
        with pytest.raises(DomainError, match=why):
            Character(items)
    ch = Character.from_dict({2: 1, -2: 1, 0: 3})
    assert ch.dim == 5
    assert ch.multiplicity(0) == 3 and ch.multiplicity(4) == 0


def test_char_tensor_example():
    sq = char_tensor(weyl_character(1), weyl_character(1))
    assert sq.as_dict() == {-2: 1, 0: 2, 2: 1}


def test_char_twist_example():
    tw = char_twist(weyl_character(1), 1, 2)
    assert tw.as_dict() == {-2: 1, 2: 1}
    with pytest.raises(DomainError):
        char_twist(weyl_character(1), 0, 2)


def test_char_dim_example():
    assert char_dim(weyl_character(10)) == 11


def test_char_algebra_properties():
    rng = random.Random(2)
    for p in (2, 3, 5, 7):
        for _ in range(60):
            a = weyl_character(rng.randrange(0, 12))
            b = weyl_character(rng.randrange(0, 12))
            if rng.random() < 0.5:
                a = char_twist(a, rng.randrange(1, 3), p)
            assert char_dim(char_tensor(a, b)) == char_dim(a) * char_dim(b)
            assert char_dim(char_add(a, b)) == char_dim(a) + char_dim(b)
            assert char_dual(a) == a
            # symmetry invariant survives the operations
            for ch in (char_tensor(a, b), char_add(a, b)):
                assert all(ch.multiplicity(-w) == m for w, m in ch.items)


def test_rendering():
    assert str(weyl_character(2)) == "-2:1 0:1 2:1"
    assert str(Character(())) == "0"
