"""Brute-force verification over GF(p): explicit matrices and exact ranks.

This module is the independent check on the closed-form calculus: it
builds the unipotent element as an explicit matrix over the prime field
(Pascal matrices for Weyl modules, Kronecker products of digit Pascal
matrices for irreducibles) and reads the Jordan type off the rank
sequence of powers of (M - I).  Nothing here consults the closed forms.

Rank computation is exact Gaussian elimination over GF(p) in numpy:
one blocked kernel whose panels settle many pivots per vectorized round
and whose trailing updates are BLAS matrix products in floating point
with delayed modular reduction.  _float_dtype picks float32 or float64
so that every intermediate integer provably stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_DIM_CAP, DomainError, JordanType, base_p_digits, check_prime
from .expr import Atom, Dual, ModuleExpr, Sum, Tensor, Twist, render_expr

_BLOCK = 128
_MUL_CHUNKS = 8
_MUL_COLS = 512


class NotUnipotentError(DomainError):
    """The matrix is not unipotent with (M - I)^p = 0."""


class DimensionCapError(DomainError):
    """Expression dimension exceeds the configured oracle cap."""


@dataclass(frozen=True)
class FpMatrix:
    """Dense matrix over GF(p); entries are int64 residues in [0, p)."""

    array: np.ndarray
    p: int

    def __post_init__(self):
        check_prime(self.p)
        a = self.array
        if a.ndim != 2:
            raise DomainError(f"matrix must be 2-dimensional, got shape {a.shape}")
        if a.dtype != np.int64:
            raise DomainError(f"matrix entries must be int64, got {a.dtype}")
        if a.size and (a.min() < 0 or a.max() >= self.p):
            raise DomainError(f"entries must be residues in [0, {self.p})")

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]


def identity_matrix(n: int, p: int) -> FpMatrix:
    return FpMatrix(np.eye(n, dtype=np.int64), check_prime(p))


def pascal_matrix(m: int, p: int) -> FpMatrix:
    """Upper triangular Pascal matrix: entry (i, j) = C(j, i) mod p.

    This is the matrix of the unipotent [[1,1],[0,1]] acting on the m-th
    symmetric power of the natural 2-dimensional module, in the monomial
    basis.
    """
    check_prime(p)
    if m < 0:
        raise DomainError(f"degree must be >= 0, got {m}")
    P = np.zeros((m + 1, m + 1), dtype=np.int64)
    P[0] = 1
    for i in range(1, m + 1):
        # C(j, i) = C(j-1, i-1) + C(j-1, i): each row is a running sum of
        # the previous one, shifted right.
        P[i, i:] = np.cumsum(P[i - 1, i - 1:m]) % p
    return FpMatrix(P, p)


def kron(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Kronecker product; realizes a tensor product of modules."""
    if a.p != b.p:
        raise DomainError(f"mismatched characteristics {a.p} != {b.p}")
    return FpMatrix(np.kron(a.array, b.array) % a.p, a.p)


def direct_sum(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Block-diagonal sum; realizes a direct sum of modules."""
    if a.p != b.p:
        raise DomainError(f"mismatched characteristics {a.p} != {b.p}")
    out = np.zeros((a.rows + b.rows, a.cols + b.cols), dtype=np.int64)
    out[:a.rows, :a.cols] = a.array
    out[a.rows:, a.cols:] = b.array
    return FpMatrix(out, a.p)


# ---------------------------------------------------------------------------
# exact rank kernel


def _float_dtype(n: int, p: int):
    # Every value the kernel handles is an integer of magnitude at most
    # n(p-1)^2 + p, where n bounds both matrix dimensions:
    #  - an input product R @ N of reduced factors is at most n(p-1)^2;
    #  - each block's trailing update subtracts at most r_b (p-1)^2 from
    #    entries that start in [0, p), and the block ranks r_b sum to the
    #    rank, so delayed entries stay within rank (p-1)^2 + p;
    #  - panel updates, multipliers, triangular inverses and row scalings
    #    multiply or sum at most n products of reduced residues.
    # BLAS partial sums of nonnegative products never exceed their total.
    # The limits below keep a factor of two under those of _reduce (2^22
    # in float32, 2^51 in float64; see there), which in turn sit under
    # the exact-integer range of the mantissa (2^24 and 2^53).
    bound = n * (p - 1) ** 2 + p
    if bound < 2 ** 21:
        return np.float32
    if bound < 2 ** 50:
        return np.float64
    raise DomainError(f"characteristic {p} too large for exact float elimination")


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce integer-valued floats into [0, p) in place, and return x.

    Uses x - p*floor((x + 1/2) / p), far cheaper than float %.  For an
    integer x the true quotient (x + 1/2)/p lies at least 1/(2p) from
    any integer.  With x + 1/2 exact and 1/p and the product each
    rounded once, the computed quotient errs by under
    (|x| + 1/2)/p * 2^(1-t) for a t-bit mantissa, which keeps the floor
    exact for |x| < 2^(t-2): 2^22 in float32, 2^51 in float64.
    """
    t = x + 0.5
    t *= 1.0 / p
    np.floor(t, out=t)
    t *= p
    x -= t
    return x


def _panel(P: np.ndarray, p: int):
    """Echelonize the reduced panel P in place by lead collisions.

    Each round finds every live row's leading column.  The first row to
    reach a column owns it, as a pivot, for good; every other row on an
    owned column subtracts the multiple of the owner that clears that
    entry, so its lead moves right.  A round thus settles all rows at
    once, and a near-echelon panel (as from triangular unipotents) takes
    few rounds.  On return the pivot rows are untouched since they were
    claimed, every other row is zero, and the multiplier used on row i
    at owned column c is kept in L[i, c].  Returns (pivot columns in
    increasing order, their owner rows, the inverses mod p of the
    owners' leading entries, L).
    """
    m, w = P.shape
    L = np.zeros((m, w), dtype=P.dtype)
    owner = np.full(w, -1, dtype=np.intp)
    dinv = np.zeros(w, dtype=P.dtype)
    act = rows = np.arange(m)
    sub = P
    while act.size:
        lead = (sub != 0).argmax(axis=1)
        val = sub[rows[:act.size], lead]
        live = val != 0
        own = owner[lead]
        free = live & (own < 0)
        if free.any():
            cols, first = np.unique(lead[free], return_index=True)
            owner[cols] = act[free][first]
            dinv[cols] = [pow(int(v), -1, p) for v in val[free][first]]
            own = owner[lead]
        hit = live & (own != act)
        if not hit.any():
            break
        act, sub, lead, own = act[hit], sub[hit], lead[hit], own[hit]
        f = np.remainder(val[hit] * dinv[lead], p)
        L[act, lead] = f
        sub -= f[:, None] * P[own]
        P[act] = _reduce(sub, p)
    pc = np.flatnonzero(owner >= 0)
    return pc, owner[pc], dinv[pc], L


def _unit_lower_inverse(S: np.ndarray, p: int) -> np.ndarray:
    """(I + S)^-1 mod p for strictly lower triangular reduced S.

    With M = -S nilpotent, (I - M)^-1 = (I + M)(I + M^2)(I + M^4)...,
    which stops at the first zero power: one doubling per factor of two
    in the longest chain of collisions.
    """
    M = _reduce(-S, p)
    inv = M.copy()
    np.fill_diagonal(inv, 1)
    while True:
        M = _reduce(M @ M, p)
        if not M.any():
            return inv
        inv = _reduce(inv + inv @ M, p)


def _echelon(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Echelon row basis of A over GF(p) with its pivot columns.

    A is a C-ordered float array of integers within the _float_dtype
    bound; it is destroyed.  Column blocks of width _BLOCK are
    echelonized in place by _panel.  The pivot rows are swapped to the
    top, their trailing part is resolved with one triangular product,
    and every row that needed a multiplier gets the trailing update as
    one BLAS product, left unreduced until its block comes up.  Returns
    (R, pivot columns): R is a view of A whose rows are reduced with
    unit pivots, and R[:, pivcols] is unit upper triangular.
    """
    m, n = A.shape
    pivcols: list[int] = []
    top = 0
    if not _reduce(A, p).any():
        return A[:0], pivcols
    for col in range(0, n, _BLOCK):
        if top == m:
            break
        end = min(col + _BLOCK, n)
        rows = A[top:]
        P = rows[:, col:end]
        if col:
            _reduce(P, p)
        pc, prow, dinv, L = _panel(P, p)
        r = pc.size
        if not r:
            continue
        # move the pivot rows, in lead order, to the top of the block;
        # the non-pivot rows they displace take the vacated places
        order = np.arange(rows.shape[0])
        is_piv = np.zeros(rows.shape[0], dtype=bool)
        is_piv[prow] = True
        vacated = prow[prow >= r]
        displaced = np.flatnonzero(~is_piv[:r])
        order[:r] = prow
        order[vacated] = displaced
        moved = np.concatenate([np.arange(r), vacated])
        rows[moved, col:] = rows[order[moved], col:]
        V = rows[:r, end:]
        if V.size:
            _reduce(V, p)
            Ls = L[prow][:, pc]
            if r > 1 and Ls.any():
                V[...] = _reduce(_unit_lower_inverse(Ls, p) @ V, p)
            # only rows that took a multiplier need the trailing update
            hit = r + np.flatnonzero(L.any(axis=1)[order[r:]])
            if hit.size:
                rows[hit, end:] -= L[order[hit]][:, pc] @ V
        if (dinv != 1).any():
            U = rows[:r, col:]
            U *= dinv[:, None]
            _reduce(U, p)
        pivcols.extend((pc + col).tolist())
        top += r
    return A[:top], pivcols


def rank_mod_p(M: np.ndarray, p: int) -> int:
    """Exact rank of an integer matrix over GF(p)."""
    check_prime(p)
    A = np.asarray(M, dtype=np.int64) % p
    if A.size == 0:
        return 0
    return _echelon(A.astype(_float_dtype(max(A.shape), p)), p)[0].shape[0]


def _row_mul(R: np.ndarray, pivcols: list[int], N: np.ndarray,
             triangular: bool) -> np.ndarray:
    """R @ N for an echelon R whose row i is zero left of pivcols[i].

    Rows go in chunks, and each chunk only multiplies the columns from
    its first pivot on.  When N is upper triangular (matrices of
    unipotents built here always are) the output also goes in column
    blocks, each of which needs N's rows only up to the block's end.
    """
    r, n = R.shape
    out = np.zeros((r, n), dtype=R.dtype)
    chunks = max(1, min(_MUL_CHUNKS, 2 * r // _MUL_COLS))
    for i in range(chunks):
        a, b = r * i // chunks, r * (i + 1) // chunks
        c = pivcols[a]
        if not triangular:
            np.matmul(R[a:b, c:], N[c:], out=out[a:b])
            continue
        for j in range(c - c % _MUL_COLS, n, _MUL_COLS):
            k = min(j + _MUL_COLS, n)
            np.matmul(R[a:b, c:k], N[c:k, j:k], out=out[a:b, j:k])
    return out


def rank_sequence(M: FpMatrix) -> list[int]:
    """Ranks [r_0, r_1, ..., r_d] of (M - I)^k, ending at the first zero.

    Raises NotUnipotentError unless (M - I)^p = 0.  Computed by iterating
    row spaces: rowspace(N^{k+1}) = rowspace(R N) for any row basis R of
    N^k, so only the first elimination runs at full size and every later
    level works on an r_k x n matrix.
    """
    n = M.rows
    if M.rows != M.cols:
        raise DomainError(f"matrix must be square, got {M.array.shape}")
    p = M.p
    dtype = _float_dtype(n, p)
    N = M.array.astype(dtype)
    np.fill_diagonal(N, (np.diagonal(M.array) - 1) % p)
    triangular = bool(np.all(np.tril(N, -1) == 0))
    ranks = [n]
    R, pivcols = _echelon(N.copy(), p)
    while R.shape[0]:
        ranks.append(int(R.shape[0]))
        if len(ranks) - 1 >= p:
            raise NotUnipotentError(
                f"(M - I)^{p} != 0: element is not unipotent of order dividing {p}")
        # the product is left unreduced: the elimination reduces on use,
        # and _float_dtype guarantees the values stay exactly representable
        R, pivcols = _echelon(_row_mul(R, pivcols, N, triangular), p)
    ranks.append(0)
    return ranks


def jordan_type_of_unipotent(M: FpMatrix) -> JordanType:
    """Exact Jordan type of a unipotent matrix with (M - I)^p = 0.

    The number of blocks of size >= k is rank((M-I)^{k-1}) - rank((M-I)^k),
    so the multiplicity of size k is r_{k-1} - 2 r_k + r_{k+1}.
    """
    return _partition_from_ranks(rank_sequence(M), M.p)


def _partition_from_ranks(ranks: list[int], p: int) -> JordanType:
    r = ranks + [0]
    pairs = []
    for k in range(1, len(ranks)):
        mult = r[k - 1] - 2 * r[k] + r[k + 1]
        if mult:
            pairs.append((k, mult))
    return JordanType.from_blocks(pairs, p)


# ---------------------------------------------------------------------------
# expression-level oracle


def expr_dim(e: ModuleExpr, p: int) -> int:
    """Dimension of a T-free expression (L and V atoms only)."""
    if isinstance(e, Atom):
        if e.kind == "L":
            digits = base_p_digits(e.weight, p)
            dim = 1
            for d in digits.digits:
                dim *= d + 1
            return dim
        if e.kind == "V":
            return e.weight + 1
        raise DomainError("tilting atoms have no oracle matrix model")
    if isinstance(e, Sum):
        return expr_dim(e.left, p) + expr_dim(e.right, p)
    if isinstance(e, Tensor):
        return expr_dim(e.left, p) * expr_dim(e.right, p)
    if isinstance(e, (Dual, Twist)):
        return expr_dim(e.inner, p)
    raise TypeError(f"not a module expression: {e!r}")


def expr_matrix(e: ModuleExpr, p: int, dim_cap: int = DEFAULT_DIM_CAP) -> FpMatrix:
    """Matrix of u on a T-free expression over the prime field.

    The unipotent element lies in SL2 of the prime field, so Frobenius
    twists and duals act as the identity on the matrix; both facts are
    property-tested rather than assumed silently.
    """
    check_prime(p)
    total = expr_dim(e, p)
    if total > dim_cap:
        raise DimensionCapError(
            f"expression dimension {total} exceeds the oracle cap {dim_cap}")
    return _build_matrix(e, p)


def _build_matrix(e: ModuleExpr, p: int) -> FpMatrix:
    if isinstance(e, Atom):
        if e.kind == "V":
            return pascal_matrix(e.weight, p)
        if e.kind == "L":
            digits = base_p_digits(e.weight, p)
            M = identity_matrix(1, p)
            for d in digits.digits:
                if d:
                    M = kron(M, pascal_matrix(d, p))
            return M
        raise DomainError("tilting atoms have no oracle matrix model")
    if isinstance(e, Sum):
        return direct_sum(_build_matrix(e.left, p), _build_matrix(e.right, p))
    if isinstance(e, Tensor):
        return kron(_build_matrix(e.left, p), _build_matrix(e.right, p))
    if isinstance(e, (Dual, Twist)):
        return _build_matrix(e.inner, p)
    raise TypeError(f"not a module expression: {e!r}")


def oracle_eval(e: ModuleExpr, p: int, dim_cap: int = DEFAULT_DIM_CAP) -> JordanType:
    """Jordan type of a T-free expression by explicit rank computations."""
    return jordan_type_of_unipotent(expr_matrix(e, p, dim_cap))


def oracle_certificate(e: ModuleExpr, p: int, dim_cap: int = DEFAULT_DIM_CAP) -> dict:
    """Audit record for a verified expression: the rank sequence is the
    raw evidence the Jordan type is derived from."""
    M = expr_matrix(e, p, dim_cap)
    ranks = rank_sequence(M)
    jt = _partition_from_ranks(ranks, p)
    return {
        "expr": render_expr(e),
        "p": p,
        "dim": M.rows,
        "ranks": ranks,
        "jordan": jt.as_pairs(),
    }
