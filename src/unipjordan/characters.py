"""Exact character arithmetic for SL2.

A character is a finite map from integer weights to positive
multiplicities, symmetric under negation (SL2 characters are self-dual):
a symmetric Laurent polynomial sum m_w x^w with positive coefficients.

Storage follows construction.  Grid arithmetic (weyl_character, a sum or
tensor product on the grid, a twist of a packed character) stores its
result packed: the offset lo, the step, and one unsigned 64-bit word per
slot of the grid lo, lo + step, ..., -lo in an ``array('Q')``, where a
zero slot is an absent weight.  Every other character, from the public
constructor or the dict convolution, keeps its sorted pairs, and grid
arithmetic packs such an operand on demand.  ``items``, the sorted
(weight, multiplicity) pairs, is the canonical view either way; a packed
character builds it on first read.

Arithmetic on packed characters is Kronecker substitution (Harvey,
J. Symbolic Comput. 44(10), 2009): a grid is read as the base-2^64
digits of one Python int, so a sum is one big-int addition and a tensor
product one big-int multiplication (CPython's Karatsuba).  It runs only
when a bound on the result's coefficients is below 2^64, so no carry
crosses a slot, and when the result's grid has at most ``_DENSITY``
slots per weight of the operands (a sum) or per term of the convolution
(a product).  Otherwise, as for huge multiplicities or under deep
twists, the dict convolution runs.  A Frobenius twist scales the offset
and the step.  All arithmetic is exact.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import compress
from math import gcd

from .core import DomainError

_DENSITY = 8  # most grid slots per weight of a packed character
_WORD = 1 << 64
_BIG_ENDIAN = sys.byteorder == "big"  # ints are read as little-endian words


class Character:
    """Weight-multiplicity map; canonical as a sorted tuple of pairs.

    Every character keeps the lattice (lo, step) of its weights; a packed
    one also keeps its slots, a sparse one its pairs."""

    __slots__ = ("_lo", "_step", "_slots", "_nnz", "_items")

    def __init__(self, items):
        items = tuple(items)
        mult = dict(items)
        if len(mult) != len(items):
            raise DomainError("duplicate weights in character")
        if any(m < 1 for m in mult.values()):
            raise DomainError("character multiplicities must be positive")
        for w, m in mult.items():
            if mult.get(-w) != m:
                raise DomainError(f"character not symmetric at weight {w}")
        if tuple(sorted(items)) != items:
            raise DomainError("character items not sorted")
        self._lo = items[0][0] if items else 0
        self._step = gcd(*[w - self._lo for w, _ in items])
        self._nnz, self._items, self._slots = len(items), items, None

    @classmethod
    def from_dict(cls, mult: dict[int, int]) -> "Character":
        return cls(tuple(sorted((w, m) for w, m in mult.items() if m)))

    @property
    def items(self) -> tuple[tuple[int, int], ...]:
        if self._items is None:
            weights = range(self._lo, 1 - self._lo, self._step or 1)
            self._items = tuple(zip(compress(weights, self._slots), filter(None, self._slots)))
        return self._items

    def as_dict(self) -> dict[int, int]:
        return dict(self.items)

    @property
    def dim(self) -> int:
        if self._slots is not None:
            return sum(self._slots)
        return sum(m for _, m in self._items)

    def multiplicity(self, w: int) -> int:
        if self._slots is not None:
            i, off = divmod(w - self._lo, self._step or 1)
            return self._slots[i] if off == 0 and 0 <= i < len(self._slots) else 0
        i = bisect_left(self._items, (w, 0))
        return self._items[i][1] if i < len(self._items) and self._items[i][0] == w else 0

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def __repr__(self) -> str:
        return f"Character(items={self.items!r})"

    def __str__(self) -> str:
        if not self.items:
            return "0"
        return " ".join(f"{w}:{m}" for w, m in self.items)


def _slot_count(lo: int, step: int) -> int:
    """Slots of the grid lo, lo + step, ..., -lo."""
    return -2 * lo // step + 1 if step else 1


def _pack(ch: Character) -> array | None:
    """The slots of a character on its lattice: its own when packed, else
    filled from its pairs; None when it is empty or a multiplicity needs
    more than one word."""
    if ch._slots is not None:
        return ch._slots
    items = ch._items
    if not items or max(m for _, m in items) >= _WORD:
        return None
    lo, step = ch._lo, ch._step or 1
    slots = array("Q", bytes(8 * _slot_count(ch._lo, ch._step)))
    for w, m in items:
        slots[(w - lo) // step] = m
    return slots


def _from_grid(lo: int, step: int, slots: array, nnz: int | None = None) -> Character:
    """The packed character on a grid, after the check that it is one:
    nonzero end slots, lo = -hi and a palindrome (order, distinct weights
    and positivity hold by the representation)."""
    n = len(slots)
    if not (slots[0] and slots[-1] and 2 * lo + (n - 1) * step == 0
            and slots == slots[::-1]):
        raise DomainError("character grid not symmetric")
    ch = Character.__new__(Character)
    ch._lo, ch._step, ch._slots, ch._items = lo, step if n > 1 else 0, slots, None
    ch._nnz = n - slots.count(0) if nnz is None else nnz
    return ch


def _to_int(slots: array, stride: int) -> int:
    """The int whose base-2^64 digits are ``slots``, ``stride`` digits apart."""
    if len(slots) == 1:
        return slots[0]
    if stride == 1 and not _BIG_ENDIAN:
        wide = slots
    else:
        wide = array("Q", bytes(8 * ((len(slots) - 1) * stride + 1)))
        wide[::stride] = slots
        if _BIG_ENDIAN:
            wide.byteswap()
    return int.from_bytes(wide, "little")


def _from_int(z: int, n: int) -> array:
    """The n base-2^64 digits of z, one word each."""
    words = array("Q", z.to_bytes(8 * n, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _add_grid(a: Character, b: Character) -> Character | None:
    """a + b spread onto their common grid and added as one int; None when
    an operand does not pack or the bound max_a + max_b reaches 2^64."""
    xa, xb = _pack(a), _pack(b)
    if xa is None or xb is None or max(xa) + max(xb) >= _WORD:
        return None
    g = gcd(a._step, b._step, a._lo - b._lo) or 1
    lo = min(a._lo, b._lo)
    za = _to_int(xa, a._step // g) << 64 * ((a._lo - lo) // g)
    zb = _to_int(xb, b._step // g) << 64 * ((b._lo - lo) // g)
    return _from_grid(lo, g, _from_int(za + zb, _slot_count(lo, g)))


def _tensor_grid(a: Character, b: Character) -> Character | None:
    """a (x) b by Kronecker substitution: one int product; None when an
    operand does not pack or the bound max_a * max_b * min(len_a, len_b)
    reaches 2^64."""
    xa, xb = _pack(a), _pack(b)
    if xa is None or xb is None or max(xa) * max(xb) * min(len(xa), len(xb)) >= _WORD:
        return None
    g = gcd(a._step, b._step) or 1
    z = _to_int(xa, a._step // g) * _to_int(xb, b._step // g)
    return _from_grid(a._lo + b._lo, g, _from_int(z, _slot_count(a._lo + b._lo, g)))


def _add_dict(a: Character, b: Character) -> Character:
    out = a.as_dict()
    for w, m in b.items:
        out[w] = out.get(w, 0) + m
    return Character.from_dict(out)


def _tensor_dict(a: Character, b: Character) -> Character:
    out: dict[int, int] = {}
    for w1, m1 in a.items:
        for w2, m2 in b.items:
            w = w1 + w2
            out[w] = out.get(w, 0) + m1 * m2
    return Character.from_dict(out)


def weyl_character(m: int) -> Character:
    """Character of the (m+1)-dimensional highest-weight-m module: weights
    m, m-2, ..., -m, each with multiplicity one."""
    if m < 0:
        raise DomainError(f"dominant weight must be >= 0, got {m}")
    return _from_grid(-m, 2, array("Q", [1]) * (m + 1), m + 1)


def char_add(a: Character, b: Character) -> Character:
    """Sum of the weight maps: one int addition (_add_grid) when the common
    grid has at most _DENSITY slots per weight of the operands and the sums
    fit one word, otherwise a dict merge."""
    g = gcd(a._step, b._step, a._lo - b._lo)
    if _slot_count(min(a._lo, b._lo), g) <= _DENSITY * (a._nnz + b._nnz):
        ch = _add_grid(a, b)
        if ch is not None:
            return ch
    return _add_dict(a, b)


def char_tensor(a: Character, b: Character) -> Character:
    """Convolution of the weight maps: one int product (_tensor_grid) when
    the result grid has at most _DENSITY slots per term of the convolution
    and the coefficients fit one word, otherwise the dict convolution."""
    g = gcd(a._step, b._step)
    if _slot_count(a._lo + b._lo, g) <= _DENSITY * a._nnz * b._nnz:
        ch = _tensor_grid(a, b)
        if ch is not None:
            return ch
    return _tensor_dict(a, b)


def char_twist(a: Character, l: int, p: int) -> Character:
    """Frobenius twist: every weight is scaled by p^l."""
    if l < 1:
        raise DomainError(f"twist exponent must be >= 1, got {l}")
    scale = p ** l
    if a._slots is not None:
        return _from_grid(a._lo * scale, a._step * scale, a._slots, a._nnz)
    return Character.from_dict({w * scale: m for w, m in a.items})


def char_dual(a: Character) -> Character:
    """The identity: SL2 characters are self-dual."""
    return a


def char_dim(a: Character) -> int:
    return a.dim
