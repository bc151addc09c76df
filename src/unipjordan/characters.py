"""Exact character arithmetic for SL2.

A character is a finite map from integer weights to positive
multiplicities, symmetric under negation (SL2 characters are self-dual):
a symmetric Laurent polynomial sum m_w x^w with positive coefficients.

Storage.  A character whose weights lie densely on a grid lo, lo + step,
..., -lo is stored packed: the offset, the step, and one unsigned 64-bit
word per grid slot in an ``array('Q')``, where a zero slot is an absent
weight.  A grid with more than ``_DENSITY`` slots per weight, or a
multiplicity of 2^64 or more, is stored as its sorted pairs instead.
``items``, the sorted (weight, multiplicity) pairs, is the canonical view
either way; a packed character builds it on first read.

Arithmetic on packed characters is Kronecker substitution (Harvey,
J. Symbolic Comput. 44(10), 2009): a grid is read as the base-2^(64k)
digits of one Python int, so a sum is one big-int addition and a tensor
product one big-int multiplication (CPython's Karatsuba).  The slot width
of k words comes from a bound on the result's coefficients, so no carry
crosses a slot.  A Frobenius twist scales the offset and the step.  Where
a result's grid would be sparse, as under deep twists, the dict
convolution runs instead.  All arithmetic is exact.
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
        if _slot_count(self._lo, self._step) <= _DENSITY * len(items):
            self._slots = _pack(self)

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
    """The slots of a character on its lattice, filled from its pairs; None
    when it is empty or a multiplicity needs two words."""
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
    """The character on a grid, after the check that it is one: nonzero end
    slots, lo = -hi and a palindrome (order, distinct weights and positivity
    hold by the representation).  Stored packed when dense, else as pairs."""
    n = len(slots)
    if not (slots[0] and slots[-1] and 2 * lo + (n - 1) * step == 0
            and slots == slots[::-1]):
        raise DomainError("character grid not symmetric")
    ch = Character.__new__(Character)
    ch._lo, ch._step, ch._slots, ch._items = lo, step if n > 1 else 0, slots, None
    ch._nnz = n - slots.count(0) if nnz is None else nnz
    if n > _DENSITY * ch._nnz:
        ch._items = ch.items
        ch._slots = None
    return ch


def _words(bound: int) -> int:
    """64-bit words per slot for coefficients up to ``bound``."""
    return -(-bound.bit_length() // 64)


def _to_int(slots: array, stride: int, k: int) -> int:
    """The int whose base-2^(64k) digits are ``slots``, ``stride`` digits apart."""
    if len(slots) == 1:
        return slots[0]
    if stride == 1 and k == 1 and not _BIG_ENDIAN:
        wide = slots
    else:
        wide = array("Q", bytes(8 * k * ((len(slots) - 1) * stride + 1)))
        wide[::stride * k] = slots
        if _BIG_ENDIAN:
            wide.byteswap()
    return int.from_bytes(wide, "little")


def _from_int(z: int, n: int, k: int) -> array | None:
    """The n base-2^(64k) digits of z, one word each (a strided view of the
    low words), or None when a digit needs more than one word."""
    words = array("Q", z.to_bytes(8 * k * n, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    if k == 1:
        return words
    if any(any(words[j::k]) for j in range(1, k)):
        return None
    return words[::k]


def _add_grid(a: Character, b: Character) -> Character | None:
    """a + b spread onto their common grid and added as one int; None when
    an operand or a coefficient needs two words."""
    xa, xb = _pack(a), _pack(b)
    if xa is None or xb is None:
        return None
    g = gcd(a._step, b._step, a._lo - b._lo) or 1
    lo = min(a._lo, b._lo)
    k = _words(max(xa) + max(xb))
    za = _to_int(xa, a._step // g, k) << 64 * k * ((a._lo - lo) // g)
    zb = _to_int(xb, b._step // g, k) << 64 * k * ((b._lo - lo) // g)
    slots = _from_int(za + zb, _slot_count(lo, g), k)
    return None if slots is None else _from_grid(lo, g, slots)


def _tensor_grid(a: Character, b: Character) -> Character | None:
    """a (x) b by Kronecker substitution: one int product, with slots wide
    enough for max_a * max_b * min(len_a, len_b); None when an operand or a
    coefficient needs two words."""
    xa, xb = _pack(a), _pack(b)
    if xa is None or xb is None:
        return None
    g = gcd(a._step, b._step) or 1
    k = _words(max(xa) * max(xb) * min(len(xa), len(xb)))
    z = _to_int(xa, a._step // g, k) * _to_int(xb, b._step // g, k)
    slots = _from_int(z, _slot_count(a._lo + b._lo, g), k)
    return None if slots is None else _from_grid(a._lo + b._lo, g, slots)


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
    """Sum of the weight maps: one int addition when the common grid has at
    most _DENSITY slots per weight of the operands, otherwise a dict merge."""
    g = gcd(a._step, b._step, a._lo - b._lo)
    if _slot_count(min(a._lo, b._lo), g) <= _DENSITY * (a._nnz + b._nnz):
        ch = _add_grid(a, b)
        if ch is not None:
            return ch
    return _add_dict(a, b)


def char_tensor(a: Character, b: Character) -> Character:
    """Convolution of the weight maps: one int product when the result grid
    has at most _DENSITY slots per term of the convolution, otherwise the
    dict convolution."""
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
