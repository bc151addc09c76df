"""Brute-force verification over GF(p): explicit matrices and exact ranks.

This module is the independent check on the closed-form calculus: it
builds the unipotent element as an explicit matrix over the prime field
(Pascal matrices for Weyl modules, Kronecker products of digit Pascal
matrices for irreducibles) and reads the Jordan type off the rank
sequence of powers of (M - I).  Nothing here consults the closed forms.

Rank computation is exact Gaussian elimination over GF(p) in numpy: one
blocked kernel that finds pivots a column block at a time and reduces
each row against all of a block's pivots at once, over the row's whole
trailing width, through the inverse of their unit triangular block.
That inverse is applied by doubling products that carry the rows along
when they are at most as many as the pivots, and is formed on its own
and applied in one product when they are more.  Each level product
R (M - I) of the rank sequence groups R's rows by the column block of
their pivot and multiplies each group from its pivot block on.
Matrices are built once, in place, in the float type that _float_dtype
proves exact (int64 for the public builders), and each product is
reduced into [0, p) where it is made.

The certificate path (oracle_certificate, oracle_eval) builds no matrix
of more rows than the larger of _BLOCK and p^2.  Jordan types are
similarity invariants, kron(PAP^-1, QBQ^-1) is similar to kron(A, B),
and kron distributes over direct sums up to a permutation similarity.
So a sum's type is the union of its parts' types, and a tensor's is the
sum of x y type(kron(J_a, J_b)) over its factors' blocks a and b of
multiplicities x and y.  Above _BLOCK rows, an expression is planned as
sums and tensors of leaves: subexpressions of at most _BLOCK rows, and
V atoms of fewer than p^2 rows.  Duals and twists fix the matrix, an L
atom is the tensor of its digit atoms, and a V atom of qp + s >= p^2
rows, s < p, is V(q - 1) (x) V(p - 1) by Lucas' theorem plus the leaf
V(s - 1), once the first part's computed type shows it free (see
_type).  Rounds of elimination type the leaves, then the pairs
kron(J_a, J_b) the tensors ask for, each leaf expression and each pair
once per request.  A round packs them into diagonal blocks of at most
_BLOCK rows and builds each in place, in its block: one elimination of
a block gives each member's ranks, its pivot columns in the member's
range.  A pair (1, b) is not built: kron(J_1, J_b) is the matrix J_b
itself.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_DIM_CAP, DomainError, JordanType, check_prime, digits
from .expr import Atom, Dual, ModuleExpr, Sum, Tensor, Twist, render_expr

_BLOCK = 128
_MUL_COLS = 256


class NotUnipotentError(DomainError):
    """The matrix is not unipotent with (M - I)^p = 0."""


class DimensionCapError(DomainError):
    """Expression dimension exceeds the configured oracle cap."""


@dataclass(frozen=True, eq=False)
class FpMatrix:
    """Dense matrix over GF(p) of int64 residues in [0, p); compared by identity."""

    array: np.ndarray
    p: int

    def __post_init__(self):
        check_prime(self.p)
        a = self.array
        if not isinstance(a, np.ndarray):
            raise DomainError(f"matrix must be a numpy array, got {type(a).__name__}")
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
    return FpMatrix(np.eye(n, dtype=np.int64), p)


def pascal_matrix(m: int, p: int) -> FpMatrix:
    """Upper triangular Pascal matrix: entry (i, j) = C(j, i) mod p.

    This is the matrix of the unipotent [[1,1],[0,1]] acting on the m-th
    symmetric power of the natural 2-dimensional module, in the monomial
    basis.  By Lucas' theorem it is the leading (m+1)-block of
    kron(Pascal(h-1), Pascal(q-1)) for q the largest power of p below
    m + 1 and h = ceil((m+1)/q), and Pascal(q-1) is built the same way;
    only the p x p digit block is summed row by row.
    """
    e = Atom("V", m)  # refuses m < 0
    return FpMatrix(_fill(e, check_prime(p), np.zeros((m + 1, m + 1), dtype=np.int64)), p)


def _kron_lead(x: np.ndarray, y: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """Write kron(x, y) mod p, cut to out's shape, into the zeroed out; return out.

    Each distinct entry c of the smaller factor makes one multiple
    c * (other factor), reduced by _reduce, which is copied into place.
    """
    ry, cy = y.shape
    small, big = (x, y) if x.size <= y.size else (y, x)
    multiples = {1: big}
    for i, j in zip(*np.nonzero(small)):
        c = int(small[i, j])
        if c not in multiples:
            multiples[c] = _reduce(np.multiply(big, c, dtype=_float_dtype(1, p)), p)
        # x[i, j] scales y into one block; y[i, j] scales x into a grid
        block = (out[i * ry:(i + 1) * ry, j * cy:(j + 1) * cy] if small is x
                 else out[i::ry, j::cy])
        block[...] = multiples[c][:block.shape[0], :block.shape[1]]
    return out


def kron(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Kronecker product; realizes a tensor product of modules."""
    if a.p != b.p:
        raise DomainError(f"mismatched characteristics {a.p} != {b.p}")
    out = np.zeros((a.rows * b.rows, a.cols * b.cols), dtype=np.int64)
    return FpMatrix(_kron_lead(a.array, b.array, a.p, out), a.p)


def direct_sum(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Block-diagonal sum; realizes a direct sum of modules."""
    if a.p != b.p:
        raise DomainError(f"mismatched characteristics {a.p} != {b.p}")
    out = np.zeros((a.rows + b.rows, a.cols + b.cols), dtype=np.int64)
    out[:a.rows, :a.cols], out[a.rows:, a.cols:] = a.array, b.array
    return FpMatrix(out, a.p)


# ---------------------------------------------------------------------------
# exact rank kernel


def _float_dtype(n: int, p: int):
    # Every value the kernel handles is an integer of magnitude at most
    # n(p-1)^2 + p, where n bounds both matrix dimensions:
    #  - an input product R @ N of reduced factors is at most n(p-1)^2;
    #  - a panel round subtracts a product X O of reduced factors, at
    #    most n(p-1)^2, from entries in [0, p) and reduces the result;
    #  - a unipotent solve's doubling step X + X M, its last product
    #    B (I + S)^-1 and a row scaling each sum at most n products of
    #    reduced residues, plus at most one residue.
    # BLAS partial sums of nonnegative products never exceed their total.
    # The limits below keep a factor of two under those of _reduce (2^22
    # in float32, 2^51 in float64; see there), which in turn sit under
    # the exact-integer range of the mantissa (2^24 and 2^53).
    bound = n * (p - 1) ** 2 + p
    if bound < 2 ** 21:
        return np.float32
    if bound < 2 ** 50:
        return np.float64
    raise DomainError(f"dimension {n} too large for exact float elimination over GF({p})")


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


def _panel(W: np.ndarray, w: int, p: int) -> np.ndarray:
    """Echelonize the first w columns of the reduced rows W in place by
    full-reduction rounds; return the pivot columns in increasing order.

    Each round, the first row to reach a free leading column among the
    first w owns it, as a pivot, for good: the row is scaled to a unit
    pivot at its claim and no round touches it again.  Every other live
    row H is reduced against all owners O at once, over the whole width of
    W: with I + S = O on the owned columns (unit upper triangular in lead
    order) it subtracts X O for X = H[:, owned] (I + S)^-1, so its new
    lead is a free column or lies past column w.  Finally the owners move,
    in lead order, to the top of W.
    """
    owner = np.full(w, -1, dtype=np.intp)
    act, sub = np.arange(W.shape[0]), W
    while True:
        lead = (sub[:, :w] != 0).argmax(axis=1)
        val = sub[np.arange(act.size), lead]
        hit = val != 0
        free = hit & (owner[lead] < 0)
        if free.any():
            # the first free row at each distinct lead claims it
            claim = free.nonzero()[0]
            claim = claim[np.argsort(lead[claim], kind="stable")]
            cols = lead[claim]
            first = np.ones(cols.size, dtype=bool)
            first[1:] = cols[1:] != cols[:-1]
            claim, cols = claim[first], cols[first]
            owner[cols] = act[claim]
            hit[claim] = False
            if (val[claim] != 1).any():
                inv = [pow(int(v), -1, p) for v in val[claim].tolist()]
                W[act[claim]] = _reduce(W[act[claim]] * np.array(inv, W.dtype)[:, None], p)
        if not hit.any():
            break
        pc = (owner >= 0).nonzero()[0]
        pc = pc[pc >= lead[hit].min()]
        act, sub = act[hit], sub[hit]
        O = W[owner[pc]]
        S = O[:, pc]
        S.flat[::pc.size + 1] = 0
        sub -= _unipotent_solve(S, sub[:, pc], p) @ O
        W[act] = _reduce(sub, p)
        if not sub[:, :w].any():
            break
    pc = (owner >= 0).nonzero()[0]
    prow, r = owner[pc], pc.size
    if w == W.shape[1]:
        # last block: only the owners are kept
        W[:r] = W[prow]
    else:
        # the non-owner rows the owners displace take their vacated places
        stay = np.ones(r, dtype=bool)
        stay[prow[prow < r]] = False
        W[np.concatenate([np.arange(r), prow[prow >= r]])] = \
            W[np.concatenate([prow, stay.nonzero()[0]])]
    return pc


def _unipotent_solve(S: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """B (I + S)^-1 mod p for nilpotent S; S and B hold residues in [0, p).

    For any nilpotent M = -S, (I - M)^-1 = (I + M)(I + M^2)(I + M^4)...:
    each product maps [X; M] to [X + X M; M^2], so S of nilpotency
    index k takes ceil(log2 k) products, and S = 0 none.  B with at most
    as many rows as S rides in X from the start; a taller B would widen
    every product, so (I + S)^-1 is found on its own, with X = I, and
    applied to B in one last product.
    """
    k, m = B.shape
    if k > m:
        return _reduce(B @ _unipotent_solve(S, np.eye(m, dtype=B.dtype), p), p)
    Z = _reduce(np.concatenate([B, -S]), p)
    while Z[k:].any():
        Y = Z @ Z[k:]
        Y[:k] += Z[:k]
        Z = _reduce(Y, p)
    return Z[:k]


def _echelon(A: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Echelon row basis of A over GF(p) with its pivot columns.

    A is a C-ordered float array of residues, sized within the _float_dtype
    bound; it is destroyed.  Each column block of width _BLOCK goes
    through _panel, which carries every reduction across the rows' whole
    trailing width and leaves the block's pivot rows final, with unit
    pivots, in lead order below those of the earlier blocks.
    Returns (R, pivot columns): R is a view of A with unit pivots, and
    R[:, pivcols] is unit upper triangular.
    """
    m, n = A.shape
    pivcols, top = [], 0
    if not A.any():
        return A[:0], np.zeros(0, np.intp)
    for col in range(0, n, _BLOCK):
        if top == m:
            break
        pc = _panel(A[top:, col:], min(_BLOCK, n - col), p)
        pivcols.append(pc + col)
        top += pc.size
    return A[:top], np.concatenate(pivcols)


def _exact_int(x) -> int:
    """x as a Python int, or DomainError unless x is an integer."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != x:
        raise DomainError(f"matrix entries must be integers, got {x!r}")
    return i


def _residues(A: np.ndarray, p: int) -> np.ndarray:
    """The entries of A, integers of any size, reduced exactly into [0, p) as int64.

    Entries that int64 holds exactly (machine integers, integral floats)
    are reduced by an int64 %, skipped when they are residues already;
    any others by Python's int %.  A non-integral entry is refused.
    """
    kind = A.dtype.kind
    if kind in "bi" or (kind in "uf" and A.min() >= -2 ** 63 and A.max() < 2 ** 63
                        and (kind == "u" or (A == np.floor(A)).all())):
        A = A.astype(np.int64, copy=False)
        return A % p if A.min() < 0 or A.max() >= p else A
    return np.array([_exact_int(x) % p for x in A.ravel().tolist()],
                    dtype=np.int64).reshape(A.shape)


def rank_mod_p(M, p: int) -> int:
    """Exact rank over GF(p) of a 2-dimensional matrix of integers of any
    size; a non-integral entry or a ragged row raises DomainError."""
    check_prime(p)
    try:
        A = np.asarray(M)
    except ValueError:  # ragged rows
        raise DomainError("matrix rows must all have the same length") from None
    if A.ndim != 2:
        raise DomainError(f"matrix must be 2-dimensional, got shape {A.shape}")
    if not A.size:
        return 0
    dtype = _float_dtype(max(A.shape), p)
    return _echelon(_residues(A, p).astype(dtype), p)[0].shape[0]


def _row_mul(R: np.ndarray, pivcols: np.ndarray, N: np.ndarray, p: int,
             triangular: bool) -> np.ndarray:
    """R @ N mod p for an echelon R whose row i is zero left of pivcols[i].

    R's rows are grouped by the _MUL_COLS-wide column block that holds
    their pivot, and each group reads R only from its first pivot on;
    blocks that hold no pivot have no group.  The output goes in column
    blocks of the same width.  When N is upper triangular (the matrices
    built here always are) an output block needs N's rows only up to its
    end, and the blocks left of a group's pivot block stay zero.  Each
    output block is reduced right after its product, while it is in cache.
    """
    r, n = R.shape
    out = np.zeros((r, n), dtype=R.dtype)
    ends = np.searchsorted(pivcols, np.arange(_MUL_COLS, n + _MUL_COLS, _MUL_COLS)).tolist()
    for a, b in zip([0] + ends, ends):
        if a == b:
            continue
        c = pivcols[a]
        for j in range(c - c % _MUL_COLS if triangular else 0, n, _MUL_COLS):
            k = min(j + _MUL_COLS, n)
            e = k if triangular else n
            _reduce(np.matmul(R[a:b, c:e], N[c:e, j:k], out=out[a:b, j:k]), p)
    return out


def rank_sequence(M: FpMatrix) -> list[int]:
    """Ranks [r_0, r_1, ..., r_d] of (M - I)^k, ending at the first zero.

    Raises NotUnipotentError unless (M - I)^p = 0.  Computed by iterating
    row spaces: rowspace(N^{k+1}) = rowspace(R N) for any row basis R of
    N^k, so only the first elimination runs at full size and every later
    level works on an r_k x n matrix.
    """
    if M.rows != M.cols:
        raise DomainError(f"matrix must be square, got {M.array.shape}")
    return _ranks(M.array.astype(_float_dtype(M.rows, M.p)), M.p, [M.rows])[0]


def _ranks(N: np.ndarray, p: int, cuts: list[int]) -> list[list[int]]:
    """rank_sequence of each diagonal block of N, the blocks ending at the
    increasing cuts (the last is N's size); N, a float array in the
    _float_dtype type, becomes N - I.

    The row space of a block-diagonal matrix is the direct sum of its
    blocks' row spaces, on disjoint column ranges, so a block's rank at
    each level is the number of pivot columns in its range.
    """
    np.fill_diagonal(N, (np.diagonal(N) - 1) % p)
    triangular = bool(np.all(np.tril(N, -1) == 0))
    cuts = np.asarray(cuts)
    levels = [cuts]  # at each level, the pivot columns left of each cut
    R, pivcols = _echelon(N.copy(), p)
    while R.shape[0]:
        levels.append(np.searchsorted(pivcols, cuts))
        if len(levels) - 1 >= p:
            raise NotUnipotentError(
                f"(M - I)^{p} != 0: element is not unipotent of order dividing {p}")
        R, pivcols = _echelon(_row_mul(R, pivcols, N, p, triangular), p)
    levels.append(0 * cuts)
    L = np.array(levels).T
    L[1:] -= L[:-1].copy()
    return [r[:r.argmin() + 1].tolist() for r in L]


def jordan_type_of_unipotent(M: FpMatrix) -> JordanType:
    """Exact Jordan type of a unipotent matrix with (M - I)^p = 0.

    The number of blocks of size >= k is rank((M-I)^{k-1}) - rank((M-I)^k),
    so the multiplicity of size k is r_{k-1} - 2 r_k + r_{k+1}.
    """
    return _partition_from_ranks(rank_sequence(M), M.p)


def _sizes(ranks: list[int]) -> dict[int, int]:
    """Jordan type {size: multiplicity} of a rank sequence."""
    r = ranks + [0]
    return {k: m for k in range(1, len(ranks)) if (m := r[k - 1] - 2 * r[k] + r[k + 1])}


def _partition_from_ranks(ranks: list[int], p: int) -> JordanType:
    return JordanType.from_blocks(_sizes(ranks).items(), p)


# ---------------------------------------------------------------------------
# expression-level oracle


def expr_dim(e: ModuleExpr, p: int) -> int:
    """Dimension of a T-free expression (L and V atoms only) at the prime p,
    which the caller has checked."""
    if isinstance(e, Atom):
        if e.kind not in ("L", "V"):
            raise DomainError("tilting atoms have no oracle matrix model")
        return e.weight + 1 if e.kind == "V" else math.prod(d + 1 for d in digits(e.weight, p))
    if isinstance(e, (Dual, Twist)):
        return expr_dim(e.inner, p)
    if isinstance(e, (Sum, Tensor)):
        op = operator.add if isinstance(e, Sum) else operator.mul
        return op(expr_dim(e.left, p), expr_dim(e.right, p))
    raise TypeError(f"not a module expression: {e!r}")


def _steinberg(l: int, p: int) -> ModuleExpr:
    """L(l) as the tensor product of V(d) over its nonzero base-p digits d."""
    atoms = [Atom("V", d) for d in digits(l, p) if d]
    return functools.reduce(Tensor, atoms) if atoms else Atom("V", 0)


def _fill(e: ModuleExpr, p: int, out: np.ndarray) -> np.ndarray:
    """Write the matrix of u on e (accepted by expr_dim) into the zeroed square
    out; return out."""
    if isinstance(e, (Dual, Twist)):
        return _fill(e.inner, p, out)
    if isinstance(e, Atom) and e.kind == "L":
        return _fill(_steinberg(e.weight, p), p, out)
    if isinstance(e, Atom):  # Pascal(m) by Lucas' theorem, see pascal_matrix
        n = e.weight + 1
        D = out if n <= p else np.zeros((p, p), out.dtype)
        D[0] = 1
        for i in range(1, D.shape[0]):  # C(j, i) = C(j-1, i-1) + C(j-1, i)
            D[i, i:] = np.cumsum(D[i - 1, i - 1:-1]) % p
        P = D
        while P.shape[0] < n:
            h = min(p, -(-n // P.shape[0]))
            k = min(n, h * P.shape[0])
            P = _kron_lead(D[:h, :h], P, p, out if k == n else np.zeros((k, k), out.dtype))
        return out
    k = expr_dim(e.left, p)
    if isinstance(e, Sum):
        _fill(e.left, p, out[:k, :k])
        _fill(e.right, p, out[k:, k:])
        return out
    h = out.shape[0] // k
    return _kron_lead(_fill(e.left, p, np.zeros((k, k), out.dtype)),
                      _fill(e.right, p, np.zeros((h, h), out.dtype)), p, out)


def _checked_dim(e: ModuleExpr, p: int, dim_cap: int) -> int:
    """Dimension of a T-free expression, after the prime and dimension-cap
    checks."""
    check_prime(p)
    if (n := expr_dim(e, p)) > dim_cap:
        raise DimensionCapError(f"expression dimension {n} exceeds the oracle cap {dim_cap}")
    return n


def _plan(e: ModuleExpr, p: int):
    """(node, dimension) of e, worked out bottom-up.  A node is a leaf (a
    subexpression of at most _BLOCK rows, or a V atom) or (Sum or Tensor,
    plan, plan), duals and twists stripped.  Above _BLOCK rows an L atom is
    the tensor of its digits, and a V atom of n = qp + s >= p^2 rows,
    0 <= s < p, is V(q - 1) (x) V(p - 1), whose Kronecker product is
    Pascal(qp - 1) by Lucas' theorem, when s = 0, and (p, plan of V(qp - 1),
    plan of V(s - 1)) when s > 0: see _type."""
    while isinstance(e, (Dual, Twist)):
        e = e.inner
    if isinstance(e, Atom):
        if (n := expr_dim(e, p)) <= _BLOCK or (e.kind == "V" and n < p * p):
            return e, n
        if e.kind == "L":
            return _plan(_steinberg(e.weight, p), p)
        if s := n % p:
            return (p, _plan(Atom("V", n - s - 1), p), (Atom("V", s - 1), s)), n
        e = Tensor(Atom("V", n // p - 1), Atom("V", p - 1))
    a, b = _plan(e.left, p), _plan(e.right, p)
    n = a[1] + b[1] if isinstance(e, Sum) else a[1] * b[1]
    return (e if n <= _BLOCK else (type(e), a, b)), n


def _type(plan, types: dict, need: dict) -> collections.Counter | None:
    """Jordan type {size: multiplicity} of a plan from the known types of
    leaves and of pairs (a, b), a <= b, that stand for kron(J_a, J_b); or
    None, with the missing ones put in need with their dimensions.  A node
    (p, U, V(s - 1)) is a V atom of qp + s rows, whose upper triangular Pascal
    matrix has diagonal blocks Pascal(qp - 1), U's, and (Lucas) Pascal(s - 1):
    a U of only size-p blocks is free over the self-injective K[x]/(x^p), so
    a direct summand, and the atom's type is the union of the two."""
    node, n = plan
    if not isinstance(node, tuple):
        if (t := types.get(node)) is None:
            need[node] = n
        return t
    a, b = _type(node[1], types, need), _type(node[2], types, need)
    if a is None or b is None:
        return None
    if node[0] is not Tensor:
        if node[0] is not Sum and set(a) != {node[0]}:
            raise RuntimeError(f"free part of a split V atom has type {dict(a)}: bug")
        return collections.Counter(a) + collections.Counter(b)
    pairs = [(x, y, (min(x, y), max(x, y))) for x in a for y in b]
    types.update({q: {q[1]: 1} for *_, q in pairs if q[0] == 1})  # kron(J_1, J_b) is J_b
    need.update({q: q[0] * q[1] for *_, q in pairs if q not in types})
    if any(q not in types for *_, q in pairs):
        return None
    return sum((collections.Counter({s: a[x] * b[y] * m for s, m in types[q].items()})
                for x, y, q in pairs), collections.Counter())


def _block_ranks(e: ModuleExpr, p: int, dim_cap: int) -> tuple[list[int], np.dtype]:
    """rank_sequence of u on e, r_k = sum m max(s - k, 0) over the type of
    e's plan, and the kernel's dtype for e's dimension, which every block
    uses.  Each round packs the leaves and pairs the plan needs, in order,
    into blocks of at most _BLOCK rows (a larger one is a block of its
    own), writes each into its diagonal view of the block's zeroed array,
    and eliminates the block once.  Types are keyed by leaf expression and
    pair, so each is built once per request."""
    n = _checked_dim(e, p, dim_cap)
    dtype = np.dtype(_float_dtype(n, p))
    root = _plan(e, p)
    types = {}  # the type of each leaf and pair
    while (t := _type(root, types, need := {})) is None:
        blocks, size = [], _BLOCK
        for key, d in need.items():
            if size + d > _BLOCK:
                blocks.append([])
                size = 0
            blocks[-1].append(key)
            size += d
        for block in blocks:
            cuts = list(itertools.accumulate(need[key] for key in block))
            N = np.zeros((cuts[-1],) * 2, dtype)
            for key, end in zip(block, cuts):
                M = N[end - need[key]:end, end - need[key]:end]
                if isinstance(key, tuple):  # kron(J_a, J_b)
                    J = [np.eye(k, dtype=dtype) + np.eye(k, k=1, dtype=dtype) for k in key]
                    _kron_lead(*J, p, M)
                else:
                    _fill(key, p, M)
            types.update(zip(block, map(_sizes, _ranks(N, p, cuts))))
    return [sum(m * max(s - k, 0) for s, m in t.items()) for k in range(max(t) + 1)], dtype


def expr_matrix(e: ModuleExpr, p: int, dim_cap: int = DEFAULT_DIM_CAP) -> FpMatrix:
    """Matrix of u on a T-free expression over the prime field.

    The unipotent element lies in SL2 of the prime field, so Frobenius
    twists and duals act as the identity on the matrix; both facts are
    property-tested rather than assumed silently.
    """
    n = _checked_dim(e, p, dim_cap)
    return FpMatrix(_fill(e, p, np.zeros((n, n), dtype=np.int64)), p)


def oracle_eval(e: ModuleExpr, p: int, dim_cap: int = DEFAULT_DIM_CAP) -> JordanType:
    """Jordan type of a T-free expression by explicit rank computations."""
    return _partition_from_ranks(_block_ranks(e, p, dim_cap)[0], p)


def oracle_certificate(e: ModuleExpr, p: int, dim_cap: int = DEFAULT_DIM_CAP) -> dict:
    """Audit record for a verified expression: the rank sequence is the
    raw evidence the Jordan type is derived from; dtype is the kernel's."""
    ranks, dtype = _block_ranks(e, p, dim_cap)
    return {"expr": render_expr(e), "p": p, "dim": ranks[0], "dtype": dtype.name,
            "ranks": ranks, "jordan": _partition_from_ranks(ranks, p).as_pairs()}
