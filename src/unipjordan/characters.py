"""Exact character arithmetic for SL2.

A character is a finite map from integer weights to positive
multiplicities, symmetric under negation (SL2 characters are self-dual).
Characters are stored sparsely and all arithmetic is exact; Python
integers make overflow a non-issue even though Frobenius twists scale
weights by p^l.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DomainError


@dataclass(frozen=True)
class Character:
    """Weight-multiplicity map; canonical as a sorted tuple of pairs."""

    items: tuple[tuple[int, int], ...]

    def __post_init__(self):
        mult = dict(self.items)
        if len(mult) != len(self.items):
            raise DomainError("duplicate weights in character")
        if any(m < 1 for m in mult.values()):
            raise DomainError("character multiplicities must be positive")
        for w, m in mult.items():
            if mult.get(-w) != m:
                raise DomainError(f"character not symmetric at weight {w}")
        if tuple(sorted(self.items)) != self.items:
            raise DomainError("character items not sorted")

    @classmethod
    def from_dict(cls, mult: dict[int, int]) -> "Character":
        return cls(tuple(sorted((w, m) for w, m in mult.items() if m)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.items)

    @property
    def dim(self) -> int:
        return sum(m for _, m in self.items)

    def multiplicity(self, w: int) -> int:
        return dict(self.items).get(w, 0)

    def __str__(self) -> str:
        if not self.items:
            return "0"
        return " ".join(f"{w}:{m}" for w, m in self.items)


def weyl_character(m: int) -> Character:
    """Character of the (m+1)-dimensional highest-weight-m module: weights
    m, m-2, ..., -m, each with multiplicity one."""
    if m < 0:
        raise DomainError(f"dominant weight must be >= 0, got {m}")
    return Character.from_dict({m - 2 * i: 1 for i in range(m + 1)})


def char_add(a: Character, b: Character) -> Character:
    out = a.as_dict()
    for w, m in b.items:
        out[w] = out.get(w, 0) + m
    return Character.from_dict(out)


def char_tensor(a: Character, b: Character) -> Character:
    """Convolution of the weight maps."""
    out: dict[int, int] = {}
    for w1, m1 in a.items:
        for w2, m2 in b.items:
            w = w1 + w2
            out[w] = out.get(w, 0) + m1 * m2
    return Character.from_dict(out)


def char_twist(a: Character, l: int, p: int) -> Character:
    """Frobenius twist: every weight is scaled by p^l."""
    if l < 1:
        raise DomainError(f"twist exponent must be >= 1, got {l}")
    scale = p ** l
    return Character.from_dict({w * scale: m for w, m in a.items})


def char_dual(a: Character) -> Character:
    """The identity: SL2 characters are self-dual."""
    return a


def char_dim(a: Character) -> int:
    return a.dim
