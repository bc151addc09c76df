"""Shared test utilities: random expression trees and a reference rank."""

from __future__ import annotations

import random

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
