"""Ext groups between SL2 simples, nonsplit extensions, and semisimplicity.

Ext^1 between two irreducibles is detected by a local digit-replacement
condition on the base-p expansions of the highest weights: it is nonzero
exactly when some position k >= nu_p(lambda+1) can be rewritten with
mu_k = p-2-lambda_k and mu_{k+1} = lambda_{k+1} +- 1, all other digits
equal.  When nonzero the Ext space is one-dimensional, so nonsplit
extensions are unique, and the ones with a single size-p Jordan block
are exactly the twisted Weyl modules and their duals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional

from .core import DomainError, JordanType, check_prime, digits, nu_p
from .expr import Atom, Dual, ModuleExpr, Sum, Tensor, Twist
from .sl2 import eval_expr, irrep_jordan, weyl_jordan


def _rewrites(lam: int, p: int, bound: int):
    """Every mu <= bound that the digit rewrite reaches from lam: at one
    position k with lam_k != p-1 (so k >= nu_p(lam+1)), mu_k = p-2-lam_k
    and mu_{k+1} = lam_{k+1} +- 1, all other digits equal.  Once p^k
    exceeds lam and bound, the one rewrite left adds more than bound."""
    ds = chain(digits(lam, p), repeat(0))
    d, pk = next(ds), 1
    while pk <= max(lam, bound):
        up = next(ds)
        if d != p - 1:
            base = lam + (p - 2 - 2 * d) * pk
            for step in (-1, 1):
                mu = base + step * pk * p
                if 0 <= up + step < p and mu <= bound:
                    yield mu
        d, pk = up, pk * p


def ext1_nonzero(lam: int, mu: int, p: int) -> bool:
    """Whether Ext^1 between the irreducibles of highest weights lam and
    mu is nonzero (in which case it is one-dimensional)."""
    check_prime(p)
    if lam < 0 or mu < 0:
        raise DomainError("weights must be non-negative")
    return mu in _rewrites(lam, p, max(lam, mu))


def ext1_neighbors(lam: int, p: int, bound: int) -> set[int]:
    """All mu <= bound with nonzero Ext^1 against lam, built constructively
    from the digit rewrite rule (used to sweep large grids without testing
    every pair)."""
    check_prime(p)
    if lam < 0:
        raise DomainError(f"weight must be non-negative, got {lam}")
    return set(_rewrites(lam, p, bound))


@dataclass(frozen=True)
class ExtVerdict:
    """Classification of the nonsplit extension of L(lam) by L(mu).

    kind is one of:
      NoExtension     -- Ext^1 vanishes;
      WeylTwist       -- the extension is the l-th twist of the Weyl
                         module V(c), Jordan type J_p + J_{c-p+1};
      DualWeylTwist   -- the l-th twist of the dual Weyl module V(c)^*;
      ManyLargeBlocks -- an extension exists but necessarily has >= 2
                         Jordan blocks of size p.
    """

    kind: str
    c: Optional[int] = None
    l: Optional[int] = None
    jordan: Optional[JordanType] = None


def _weyl_twist_params(lam: int, mu: int, p: int) -> Optional[tuple[int, int]]:
    """(c, l) with lam = c p^l, mu = (2p-2-c) p^l, p <= c <= 2p-2, if any.

    Every c in [p, 2p-2] but c = p is prime to p, so l = nu_p(lam), or
    nu_p(lam) - 1 with c = p when lam is a power of p."""
    if lam <= 0:
        return None
    l = nu_p(lam, p)
    c = lam // p ** l
    if c == 1 and l:
        c, l = p, l - 1
    return (c, l) if p <= c <= 2 * p - 2 and mu == (2 * p - 2 - c) * p ** l else None


def nonsplit_ext_classify(lam: int, mu: int, p: int) -> ExtVerdict:
    """Classify the (unique) nonsplit extension of L(lam) by L(mu)."""
    check_prime(p)
    if not ext1_nonzero(lam, mu, p):
        return ExtVerdict("NoExtension")
    params = _weyl_twist_params(lam, mu, p)
    if params:
        c, l = params
        return ExtVerdict("WeylTwist", c, l, weyl_jordan(c, p))
    params = _weyl_twist_params(mu, lam, p)
    if params:
        c, l = params
        return ExtVerdict("DualWeylTwist", c, l, weyl_jordan(c, p))
    return ExtVerdict("ManyLargeBlocks")


@dataclass(frozen=True)
class Family:
    """An infinite twist-parametrized family of modules, never expanded.

    kind: 'irreducible' (digit multiset with strictly increasing twist
    exponents), 'weyl' / 'dual-weyl' (twists of V(c) or its dual),
    'direct-sum' or 'tilting-twist' (the dimension-4, p=2 cases).
    """

    kind: str
    template: str
    constraint: str
    digits: tuple[int, ...] = ()
    c: int = 0

    def instantiate(self, exponents: tuple[int, ...]) -> ModuleExpr:
        """Concrete member of the family at the given twist exponents."""
        if self.kind == "irreducible":
            if sorted(set(exponents)) != list(exponents):
                raise DomainError("twist exponents must be strictly increasing")
            if len(exponents) != len(self.digits):
                raise DomainError("need one exponent per digit")
            factors = [_twisted(Atom("L", d), e) for d, e in zip(self.digits, exponents)]
            return functools.reduce(Tensor, factors) if factors else Atom("L", 0)
        if self.kind in ("weyl", "dual-weyl"):
            (l,) = exponents
            node: ModuleExpr = Atom("V", self.c)
            if self.kind == "dual-weyl":
                node = Dual(node)
            return _twisted(node, l)
        if self.kind == "direct-sum":
            n, m = exponents
            return Sum(_twisted(Atom("L", 1), n), _twisted(Atom("L", 1), m))
        if self.kind == "tilting-twist":
            (n,) = exponents
            return _twisted(Atom("T", 2), n)
        raise DomainError(f"unknown family kind {self.kind!r}")


def _twisted(node: ModuleExpr, l: int) -> ModuleExpr:
    return Twist(node, l) if l >= 1 else node


def _digit_multisets(target_dim: int, max_digit: int) -> list[tuple[int, ...]]:
    """Non-increasing digit tuples with prod(d_i + 1) = target_dim.

    Each factor d + 1 is a divisor of the remaining dimension, found by
    trial division up to its square root."""
    out: list[tuple[int, ...]] = []

    def go(remaining: int, ceiling: int, acc: tuple[int, ...]):
        if remaining == 1:
            out.append(acc)
            return
        small = [q for q in range(1, math.isqrt(remaining) + 1) if remaining % q == 0]
        for q in sorted({*small, *(remaining // q for q in small)}, reverse=True):
            if 1 < q <= ceiling + 1:
                go(remaining // q, q - 1, acc + (q - 1,))

    go(target_dim, max_digit, ())
    return out


def enumerate_indecomposables(t: JordanType, p: int) -> list[Family]:
    """All indecomposable-module families with Jordan type t, for t with
    at most one block of size p.

    Complete by the classification of indecomposables with <= 1 size-p
    block: irreducibles (digit multisets, any strictly increasing twist
    assignment) and, when t = J_p + J_{c-p+1}, the twisted Weyl module
    and its dual.  Types with >= 2 size-p blocks are rejected: the
    classification does not apply there.
    """
    check_prime(p)
    if t.p != p:
        raise DomainError(f"type lives in characteristic {t.p}, not {p}")
    if t.size_p_multiplicity > 1:
        raise DomainError(
            f"type has {t.size_p_multiplicity} blocks of size {p}; "
            "classification needs at most one")
    if t.max_size > p:
        raise DomainError(f"blocks exceed {p}: not a type of an order-{p} element")
    families: list[Family] = []
    for digits in _digit_multisets(t.dim, p - 1):
        # the irreducible whose base-p digits are these
        if irrep_jordan(sum(d * p ** i for i, d in enumerate(digits)), p) == t:
            names = [f"n{i}" for i in range(1, len(digits) + 1)]
            template = "*".join(
                f"L({d})[{nm}]" for d, nm in zip(digits, names)) or "L(0)"
            constraint = "0 <= " + " < ".join(names) if names else "trivial"
            families.append(Family("irreducible", template, constraint, digits=digits))
    sizes = t.blocks
    if len(sizes) == 2 and t.size_p_multiplicity == 1 and t.num_blocks == 2:
        small = [s for s, _ in sizes if s != p]
        if small and 1 <= small[0] <= p - 1:
            c = small[0] + p - 1
            families.append(Family("weyl", f"V({c})[l]", "l >= 0", c=c))
            families.append(Family("dual-weyl", f"V({c})^*[l]", "l >= 0", c=c))
    return families


def classify_dim4_p2() -> list[Family]:
    """The three module families with Jordan type 2.J_2 at p = 2:
    irreducible tensors of twists of the natural module (distinct twists),
    direct sums of two twisted natural modules, and twists of the
    4-dimensional tilting module."""
    p = 2
    target = JordanType.from_blocks([(2, 2)], p)
    families = [
        Family("irreducible", "L(1)[n]*L(1)[m]", "0 <= n < m", digits=(1, 1)),
        Family("direct-sum", "L(1)[n]+L(1)[m]", "0 <= n <= m", digits=(1, 1)),
        Family("tilting-twist", "T(2)[n]", "n >= 0", c=2),
    ]
    for fam, exps in ((families[0], (0, 1)), (families[1], (0, 0)), (families[2], (0,))):
        got = eval_expr(fam.instantiate(exps), p).jordan
        if got != target:
            raise RuntimeError(f"family {fam.template} fails its Jordan check: {got}")
    return families


@dataclass(frozen=True)
class SemisimplicityVerdict:
    verdict: str  # "ForcedSemisimple" | "Inconclusive"
    reason: str

    def __bool__(self) -> bool:
        return self.verdict == "ForcedSemisimple"


def semisimplicity_verdict(t: JordanType, self_dual: bool, p: int) -> SemisimplicityVerdict:
    """Semisimplicity forced by Jordan data alone.

    Forced when all blocks have size < p, or when the module is self-dual
    with at most one block of size p.  Inconclusive otherwise: the
    criteria are one-directional, so this never claims non-semisimplicity.
    """
    check_prime(p)
    if t.p != p:
        raise DomainError(f"type lives in characteristic {t.p}, not {p}")
    if t.max_size > p:
        raise DomainError(f"blocks exceed {p}: not a type of an order-{p} element")
    if t.max_size < p:
        return SemisimplicityVerdict("ForcedSemisimple", f"all blocks of size < {p}")
    if self_dual and t.size_p_multiplicity <= 1:
        return SemisimplicityVerdict(
            "ForcedSemisimple", f"self-dual with {t.size_p_multiplicity} block(s) of size {p}")
    return SemisimplicityVerdict(
        "Inconclusive", "semisimplicity is not decided by Jordan data alone")
