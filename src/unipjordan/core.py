"""Core domain types: Jordan types and base-p digit vectors.

A Jordan type is a multiset of Jordan block sizes together with the
prime characteristic it lives in.  Canonical form is sorted descending
by size with multiplicities merged, rendered as ``"5^15 1^3"`` (the
exponent is omitted when the multiplicity is 1).  That rendering is the
serialization used everywhere else (JSON output, class tables), so it is
kept stable.
"""

from __future__ import annotations

from dataclasses import dataclass


class DomainError(ValueError):
    """Invalid input to one of the calculus operations."""


# Default cap on the matrix dimension the GF(p) oracle will build; kept
# here so that the CLI can offer it without loading the oracle.
DEFAULT_DIM_CAP = 4096


# The first twelve primes: as Miller-Rabin bases they decide every n below
# PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 318665857834031151167461


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; p >= PRIME_LIMIT raises DomainError.
    Division by the bases comes first, so p <= 37 needs no modular power."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p >= PRIME_LIMIT:
        raise DomainError(f"primality is decided only below {PRIME_LIMIT}, got {p}")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """Validate the characteristic once at an entry point."""
    if not isinstance(p, int) or not is_prime(p):
        raise DomainError(f"characteristic must be a prime, got {p!r}")
    return p


@dataclass(frozen=True)
class JordanType:
    """Multiset of Jordan block sizes of a unipotent element.

    ``blocks`` is stored canonically as a tuple of (size, multiplicity)
    pairs, sizes strictly decreasing, multiplicities >= 1.  ``p`` is the
    ambient prime characteristic.  Block sizes of the order-p calculus
    never exceed p; types coming from unipotent elements of higher order
    (as in the classical-group criteria) may have larger blocks, so the
    constructor only enforces size >= 1.
    """

    blocks: tuple[tuple[int, int], ...]
    p: int

    def __post_init__(self):
        check_prime(self.p)
        sizes = [s for s, _ in self.blocks]
        if any(s < 1 for s in sizes):
            raise DomainError(f"block sizes must be >= 1: {self.blocks}")
        if any(m < 1 for _, m in self.blocks):
            raise DomainError(f"multiplicities must be >= 1: {self.blocks}")
        if any(s <= t for s, t in zip(sizes, sizes[1:])):
            raise DomainError(f"blocks must be canonical (descending, merged): {self.blocks}")

    @classmethod
    def from_blocks(cls, pairs, p: int) -> "JordanType":
        """Build from any iterable of (size, multiplicity) pairs."""
        acc: dict[int, int] = {}
        for s, m in pairs:
            if m:
                acc[int(s)] = acc.get(int(s), 0) + int(m)
        canon = tuple(sorted(acc.items(), reverse=True))
        return cls(canon, p)

    @classmethod
    def from_sizes(cls, sizes, p: int) -> "JordanType":
        return cls.from_blocks(((s, 1) for s in sizes), p)

    @property
    def dim(self) -> int:
        return sum(s * m for s, m in self.blocks)

    @property
    def num_blocks(self) -> int:
        """Number of blocks counted with multiplicity."""
        return sum(m for _, m in self.blocks)

    def multiplicity(self, size: int) -> int:
        for s, m in self.blocks:
            if s == size:
                return m
        return 0

    @property
    def size_p_multiplicity(self) -> int:
        """Number of blocks of size exactly p."""
        return self.multiplicity(self.p)

    @property
    def max_size(self) -> int:
        return self.blocks[0][0] if self.blocks else 0

    def add(self, other: "JordanType") -> "JordanType":
        """Direct sum of Jordan types."""
        if other.p != self.p:
            raise DomainError(f"mismatched characteristics {self.p} != {other.p}")
        return JordanType.from_blocks(self.blocks + other.blocks, self.p)

    def __str__(self) -> str:
        return render_blocks(self.blocks) if self.blocks else "0"

    def as_pairs(self) -> list[list[int]]:
        """[[size, mult], ...] descending: the JSON serialization."""
        return [[s, m] for s, m in self.blocks]


def render_blocks(blocks) -> str:
    """Canonical rendering ``"5^15 1^3"`` of (size, multiplicity) pairs."""
    return " ".join(f"{s}^{m}" if m > 1 else str(s) for s, m in blocks)


def parse_int(text: str) -> int:
    """A decimal integer with an optional sign, written in ASCII digits.

    int() also reads other Unicode decimal digits and underscores
    ("\u0665", "1_0"); numeric input is read here instead.  Raises
    ValueError otherwise.
    """
    s = text.strip()
    digits = s[1:] if s[:1] in ("+", "-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}: ASCII digits only")
    return int(s)


def parse_blocks(text: str) -> list[tuple[int, int]]:
    """Parse a partition in any of the accepted command-line forms into
    (size, multiplicity) pairs, in the order written.

    Accepts "15 9 3", "15,9,3" and "5^15 1^3" (mixed tokens allowed);
    a token "s^m" contributes m blocks of size s.
    """
    pairs = []
    for tok in text.replace(",", " ").split():
        try:
            if "^" in tok:
                s_str, m_str = tok.split("^", 1)
                pairs.append((parse_int(s_str), parse_int(m_str)))
            else:
                pairs.append((parse_int(tok), 1))
        except ValueError as exc:
            raise DomainError(f"bad partition token {tok!r} in {text!r}") from exc
    for s, m in pairs:
        if s < 1 or m < 1:
            raise DomainError(f"bad partition token ({s}^{m}) in {text!r}")
    return pairs


def parse_partition(text: str, p: int) -> JordanType:
    """Parse a partition, in a form :func:`parse_blocks` accepts, in characteristic p."""
    check_prime(p)
    return JordanType.from_blocks(parse_blocks(text), p)


@dataclass(frozen=True)
class DigitVector:
    """Base-p digit expansion of a dominant weight, least significant first.

    Trailing zeros are stripped; the empty sequence encodes the weight 0.
    """

    digits: tuple[int, ...]
    p: int

    def __post_init__(self):
        check_prime(self.p)
        if any(d < 0 or d >= self.p for d in self.digits):
            raise DomainError(f"digits out of range [0, {self.p - 1}]: {self.digits}")
        if self.digits and self.digits[-1] == 0:
            raise DomainError(f"digit vector not canonical (trailing zero): {self.digits}")

    def weight(self) -> int:
        """Reconstruct the weight sum(digits[i] * p^i)."""
        w = 0
        for d in reversed(self.digits):
            w = w * self.p + d
        return w

    def __len__(self) -> int:
        return len(self.digits)

    def __getitem__(self, i: int) -> int:
        """Digit at position i, zero beyond the stored length."""
        return self.digits[i] if 0 <= i < len(self.digits) else 0


def digits(n: int, p: int):
    """Base-p digits of n >= 0, lowest first, for a prime p the caller has
    checked; none for n = 0."""
    while n:
        n, d = divmod(n, p)
        yield d


def base_p_digits(n: int, p: int) -> DigitVector:
    """Canonical base-p digits of a non-negative integer."""
    check_prime(p)
    if n < 0:
        raise DomainError(f"weight must be non-negative, got {n}")
    return DigitVector(tuple(digits(n, p)), p)


def nu_p(n: int, p: int) -> int:
    """Largest k with p^k dividing n (n >= 1)."""
    if n <= 0:
        raise DomainError(f"p-adic valuation needs a positive integer, got {n}")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k
