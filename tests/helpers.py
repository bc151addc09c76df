"""Shared test utilities: random expression trees, a reference rank, and
a reference Ext^1 from the submodule lattice of a Weyl module."""

from __future__ import annotations

import functools
import random
from math import comb

import numpy as np

from unipjordan.expr import Atom, Dual, Sum, Tensor, Twist


def rand_expr(rng: random.Random, depth: int, p: int, kinds: str = "LVT",
              max_weight: int | None = None):
    """Random module-expression tree of the given depth budget."""
    if max_weight is None:
        max_weight = 3 * p * p
    if depth == 0 or rng.random() < 0.4:
        return Atom(rng.choice(kinds), rng.randrange(0, max_weight + 1))
    roll = rng.random()
    if roll < 0.35:
        return Sum(rand_expr(rng, depth - 1, p, kinds, max_weight),
                   rand_expr(rng, depth - 1, p, kinds, max_weight))
    if roll < 0.65:
        return Tensor(rand_expr(rng, depth - 1, p, kinds, max_weight),
                      rand_expr(rng, depth - 1, p, kinds, max_weight))
    if roll < 0.85:
        return Dual(rand_expr(rng, depth - 1, p, kinds, max_weight))
    return Twist(rand_expr(rng, depth - 1, p, kinds, max_weight), rng.randrange(1, 4))


def naive_rank(A, p: int) -> int:
    """Textbook Gaussian elimination over GF(p) with Python integers."""
    A = np.array(A, dtype=object) % p
    m, n = A.shape
    row = 0
    for col in range(n):
        pr = next((r for r in range(row, m) if A[r, col] % p), None)
        if pr is None:
            continue
        A[[row, pr]] = A[[pr, row]]
        inv = pow(int(A[row, col]), -1, p)
        A[row] = (A[row] * inv) % p
        for r in range(row + 1, m):
            if A[r, col]:
                A[r] = (A[r] - A[r, col] * A[row]) % p
        row += 1
        if row == m:
            break
    return row


def unit_upper_inverse(Q: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a unit upper-triangular matrix mod p (Neumann series)."""
    n = Q.shape[0]
    S = (Q - np.eye(n, dtype=np.int64)) % p
    acc = np.eye(n, dtype=np.int64)
    term = np.eye(n, dtype=np.int64)
    sign = 1
    for _ in range(n - 1):
        term = (term @ S) % p
        if not term.any():
            break
        sign = -sign
        acc = (acc + sign * term) % p
    return acc % p


def column_rank(A, p: int) -> int:
    """Textbook Gaussian elimination over GF(p), one column per step, each
    step vectorized over the rows in int64.

    A step reduces mod p only the pivot column and the pivot row, and
    updates only the columns from the pivot on.  Every other entry then
    changes by a product of two residues, less than p^2, per step, so the
    entries stay below p + min(m, n) p^2 in magnitude: exact in int64
    while that is under 2^63.
    """
    A = np.array(A, dtype=np.int64) % p
    m, n = A.shape
    row = 0
    for col in range(n):
        column = A[row:, col]
        column %= p
        nz = np.flatnonzero(column)
        if not nz.size:
            continue
        pr = row + nz[0]
        A[[row, pr]] = A[[pr, row]]
        pivot = A[row, col:]
        pivot %= p
        pivot *= pow(int(pivot[0]), -1, p)
        pivot %= p
        below = A[row + 1:, col:]
        below -= np.outer(below[:, 0], pivot)
        row += 1
        if row == m:
            break
    return row


@functools.lru_cache(maxsize=None)
def _weyl_reach(lam: int, p: int) -> tuple[int, ...]:
    """Bitmask of the basis positions that each position of V(lam) reaches.

    V(lam) over GF(p) has the basis v_j = F^(j) v_0, j = 0..lam, with
    F^(k) v_j = C(j+k, k) v_{j+k} and E^(k) v_j = C(lam-j+k, k) v_{j-k}.
    The E^(p^i) and F^(p^i) generate the hyperalgebra and every weight
    space is a line, so the submodules are the sets of positions closed
    under these moves.
    """
    reach = [1 << j for j in range(lam + 1)]
    k = 1
    while k <= lam:
        for j in range(lam + 1):
            if j + k <= lam and comb(j + k, k) % p:
                reach[j] |= 1 << (j + k)
            if j >= k and comb(lam - j + k, k) % p:
                reach[j] |= 1 << (j - k)
        k *= p
    for m in range(lam + 1):  # Warshall's transitive closure on bitmask rows
        for j in range(lam + 1):
            if reach[j] >> m & 1:
                reach[j] |= reach[m]
    return tuple(reach)


def ext1_lattice(lam: int, mu: int, p: int) -> bool:
    """Whether Ext^1(L(lam), L(mu)) != 0, read off the submodule lattice of
    V(lam) with no digit rule (Jantzen, Representations of Algebraic
    Groups, II.2.12-2.14).

    For mu < lam, Ext^1(L(lam), L(mu)) = Hom(rad V(lam), L(mu)), and rad
    V(lam) is the set of positions that cannot reach 0.  With j0 =
    (lam-mu)/2, let K be the radical positions that do not reach j0 and
    Q = rad minus K.  Ext^1 is nonzero exactly when j0 is in the radical,
    j0 is the lowest position of Q, and Q lies inside the closure of j0.
    lam = mu or an odd lam - mu gives 0, and the relation is symmetric.
    """
    if mu > lam:
        lam, mu = mu, lam
    if lam == mu or (lam - mu) % 2:
        return False
    reach = _weyl_reach(lam, p)
    j0 = (lam - mu) // 2
    rad = [j for j in range(lam + 1) if not reach[j] & 1]
    q = [j for j in rad if reach[j] >> j0 & 1]
    return j0 in rad and min(q) == j0 and all(reach[j0] >> j & 1 for j in q)
