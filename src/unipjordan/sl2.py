"""Closed-form Jordan types of an order-p unipotent element on SL2 modules.

The unipotent element u is a non-identity unipotent of SL2 over an
algebraically closed field of characteristic p; it has order p, so every
Jordan block has size at most p.  The block data of the basic modules:

* tensor products of single blocks decompose by the h/N closed form
  (h = min(m, p-n), N = max(0, m+n-p) for 1 <= m <= n <= p);
* the Weyl module of highest weight m = qp + r restricts as
  q.J_p + J_{r+1};
* the irreducible of highest weight lambda factors through its base-p
  digits, one block J_{digit+1} per digit, tensored together (Frobenius
  twists do not move Jordan blocks);
* the indecomposable tilting module of highest weight c >= p-1 is free,
  i.e. dim/p copies of J_p; its dimension comes from the two base cases
  (c <= p-1 irreducible; p <= c <= 2p-2 uniserial of dimension 2p) and
  the tensor-twist recursion T(c) = T(p-1+r) (x) T(s)^[1] for
  c = sp + (p-1+r).

None of this needs a weight multiplicity, so :func:`eval_expr` works on
integers only, on plain {size: multiplicity} maps with one routine per
block rule (the public *_jordan functions wrap them); it canonicalises once,
into the request's one JordanType.  The character is a separate recursion,
run the first time :attr:`EvalResult.character` is read.  The module holds
no shared state: nothing is cached across calls.

Everything here is cross-checked against the finite-field matrix oracle
in :mod:`unipjordan.oracle` by the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .characters import (
    Character,
    char_add,
    char_dual,
    char_tensor,
    char_twist,
    weyl_character,
)
from .core import DomainError, JordanType, check_prime, digits
from .expr import Atom, Dual, ModuleExpr, Sum, Tensor, Twist


def tensor_jordan(m: int, n: int, p: int) -> JordanType:
    """Jordan type of J_m (x) J_n in characteristic p.

    Accepts the block sizes in either order; both must lie in [1, p].
    The result is sum_{i<h} J_{n-m+2i+1} + N.J_p with h = min(m, p-n)
    and N = max(0, m+n-p); its dimension is m*n.
    """
    check_prime(p)
    m, n = sorted((m, n))
    if m < 1 or n > p:
        raise DomainError(f"block sizes must be within [1, {p}]: got ({m}, {n})")
    h = min(m, p - n)
    big = max(0, m + n - p)
    pairs = [(n - m + 2 * i + 1, 1) for i in range(h)]
    if big:
        pairs.append((p, big))
    t = JordanType.from_blocks(pairs, p)
    assert t.dim == m * n
    return t


def tensor_jordan_types(a: JordanType, b: JordanType) -> JordanType:
    """Bilinear extension of tensor_jordan to whole Jordan types.

    Valid because u acts diagonally on a tensor product, so the type of
    (A (x) B) is the multiset union over all block pairs.
    """
    if a.p != b.p:
        raise DomainError(f"mismatched characteristics {a.p} != {b.p}")
    p = a.p
    largest = max(a.max_size, b.max_size)
    if largest > p:
        raise DomainError(f"block sizes must be within [1, {p}]: got {largest}")
    return JordanType.from_blocks(_tensor_blocks(dict(a.blocks), dict(b.blocks), p).items(), p)


def weyl_jordan(m: int, p: int) -> JordanType:
    """Jordan type of the Weyl module of highest weight m: for m = qp + r,
    q blocks of size p and one of size r+1."""
    _dominant(m, p)
    return JordanType.from_blocks(_weyl_blocks(m, p).items(), p)


def irrep_jordan(lam: int, p: int) -> JordanType:
    """Jordan type of the irreducible of highest weight lambda.

    The irreducible factors into Frobenius twists of the restricted
    irreducibles given by the base-p digits; twists leave Jordan types
    unchanged, so the type is the tensor fold of J_{digit+1}.
    """
    _weight(lam, p)
    return JordanType.from_blocks(_irrep(lam, p)[1].items(), p)


def irrep_char(lam: int, p: int) -> Character:
    """Character of the irreducible of highest weight lambda, via the
    digit factorization (twists scale weights by p^i)."""
    _weight(lam, p)
    ch = weyl_character(0)
    for i, d in enumerate(digits(lam, p)):
        if d:
            factor = weyl_character(d)
            if i:
                factor = char_twist(factor, i, p)
            ch = char_tensor(ch, factor)
    return ch


def tilting_char(c: int, p: int) -> Character:
    """Character of the indecomposable tilting module of highest weight c.

    Base cases: irreducible for c <= p-1; sum of the two Weyl characters
    ch V(c) + ch V(2p-2-c) for p <= c <= 2p-2.  Above that, the
    tensor-twist recursion with c = sp + (p-1+r), 0 <= r <= p-1, s >= 1.
    """
    _dominant(c, p)
    if c <= p - 1:
        return weyl_character(c)
    if c <= 2 * p - 2:
        return char_add(weyl_character(c), weyl_character(2 * p - 2 - c))
    s, r = divmod(c - (p - 1), p)
    return char_tensor(tilting_char(p - 1 + r, p), char_twist(tilting_char(s, p), 1, p))


def tilting_dim(c: int, p: int) -> int:
    """Dimension of T(c) by the tensor-twist recursion on integers, where
    dim T(p-1+r) is p for r = 0 and 2p for 1 <= r <= p-1."""
    _dominant(c, p)
    return _tilting(c, p)[0]


def tilting_jordan(c: int, p: int) -> JordanType:
    """Jordan type of the tilting module: J_{c+1} when it is irreducible
    (c <= p-1); free of rank dim/p otherwise."""
    _dominant(c, p)
    return JordanType.from_blocks(_tilting(c, p)[1].items(), p)


def _weight(lam: int, p: int) -> None:
    check_prime(p)
    if lam < 0:
        raise DomainError(f"weight must be non-negative, got {lam}")


def _dominant(m: int, p: int) -> None:
    check_prime(p)
    if m < 0:
        raise DomainError(f"dominant weight must be >= 0, got {m}")


@dataclass(frozen=True)
class EvalResult:
    """Dimension and Jordan type of a module expression; the character is
    built from ``expr`` the first time it is read, and kept."""

    expr: ModuleExpr
    p: int
    dim: int
    jordan: JordanType

    @functools.cached_property
    def character(self) -> Character:
        ch = _character(self.expr, self.p)
        if ch.dim != self.dim:
            raise RuntimeError(f"character dim {ch.dim} != {self.dim} on {self.expr!r}: bug")
        return ch


def eval_expr(e: ModuleExpr, p: int) -> EvalResult:
    """Dimension and Jordan type of a module expression, each by structural
    recursion (duals and twists fix both); the two are checked to agree."""
    check_prime(p)
    dim, blocks = _eval(e, p)
    jt = JordanType.from_blocks(blocks.items(), p)
    if dim != jt.dim:
        raise RuntimeError(f"dimension/Jordan mismatch {dim} != {jt.dim} on {e!r}: bug")
    return EvalResult(e, p, dim, jt)


def _eval(e: ModuleExpr, p: int) -> tuple[int, dict[int, int]]:
    """Dimension and {size: multiplicity} blocks of e, p checked.  The maps
    below hold sizes <= p and no zero multiplicity, and are never mutated."""
    if isinstance(e, Atom):
        if e.kind == "L":
            return _irrep(e.weight, p)
        if e.kind == "V":
            return e.weight + 1, _weyl_blocks(e.weight, p)
        return _tilting(e.weight, p)
    if isinstance(e, (Sum, Tensor)):
        d1, b1 = _eval(e.left, p)
        d2, b2 = _eval(e.right, p)
        if isinstance(e, Sum):
            return d1 + d2, _add_blocks(b1, b2)
        return d1 * d2, _tensor_blocks(b1, b2, p)
    if isinstance(e, (Dual, Twist)):
        return _eval(e.inner, p)
    raise TypeError(f"not a module expression: {e!r}")


def _weyl_blocks(m: int, p: int) -> dict[int, int]:
    q, r = divmod(m, p)  # J_{r+1} joins the q blocks J_p when r = p - 1
    return {p: q + 1} if r == p - 1 else {p: q, r + 1: 1} if q else {r + 1: 1}


def _irrep(lam: int, p: int) -> tuple[int, dict[int, int]]:
    """Dimension and blocks of L(lam), folded over its base-p digits."""
    dim, blocks = 1, {1: 1}
    for d in digits(lam, p):
        if d:
            dim *= d + 1
            blocks = _tensor_blocks(blocks, {d + 1: 1}, p)
    return dim, blocks


def _tilting(c: int, p: int) -> tuple[int, dict[int, int]]:
    """Dimension and blocks of T(c), as tilting_dim and tilting_jordan say."""
    dim, s = 1, c
    while s > 2 * p - 2:
        s, r = divmod(s - (p - 1), p)
        dim *= 2 * p if r else p
    dim *= s + 1 if s < p else 2 * p
    if c <= p - 1:
        return dim, {c + 1: 1}
    big, rem = divmod(dim, p)
    if rem:
        raise RuntimeError(
            f"tilting dimension {dim} not divisible by p={p} at c={c}: implementation bug")
    return dim, {p: big}


def _add_blocks(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for s, m in b.items():
        out[s] = out.get(s, 0) + m
    return out


def _tensor_blocks(a: dict[int, int], b: dict[int, int], p: int) -> dict[int, int]:
    """Each block pair adds the step-2 run of tensor_jordan's h sizes (all
    below p) as a difference array, +w at its first size and -w past its
    last, plus its N blocks of size p; one prefix sweep per parity reads off
    every size, in O(|a| |b| + number of sizes) rather than O(|a| |b| h)."""
    diff: tuple[dict[int, int], dict[int, int]] = ({}, {})  # by parity of size
    full = 0
    for s1, m1 in a.items():
        for s2, m2 in b.items():
            m, n = (s1, s2) if s1 <= s2 else (s2, s1)
            w = m1 * m2
            first = n - m + 1
            d = diff[first & 1]
            d[first] = d.get(first, 0) + w
            stop = first + 2 * min(m, p - n)
            d[stop] = d.get(stop, 0) - w
            full += max(0, m + n - p) * w
    out = {p: full} if full else {}
    for d in diff:
        keys = sorted(d)
        run = 0
        for size, nxt in zip(keys, keys[1:]):
            run += d[size]
            if run:
                out.update(dict.fromkeys(range(size, nxt, 2), run))
    return out


def _character(e: ModuleExpr, p: int) -> Character:
    """Character of a module expression, by the recursion of _eval."""
    if isinstance(e, Atom):
        if e.kind == "L":
            return irrep_char(e.weight, p)
        if e.kind == "V":
            return weyl_character(e.weight)
        return tilting_char(e.weight, p)
    if isinstance(e, Sum):
        return char_add(_character(e.left, p), _character(e.right, p))
    if isinstance(e, Tensor):
        return char_tensor(_character(e.left, p), _character(e.right, p))
    if isinstance(e, Dual):
        return char_dual(_character(e.inner, p))
    if isinstance(e, Twist):
        return char_twist(_character(e.inner, p), e.l, p)
    raise TypeError(f"not a module expression: {e!r}")
