"""Finite-field matrix oracle: ranks, Jordan types, expression evaluation."""

import functools
import math
import random

import numpy as np
import pytest

from helpers import column_rank, naive_rank, rand_expr, unit_upper_inverse
from unipjordan.core import (
    DEFAULT_DIM_CAP,
    DomainError,
    JordanType,
    base_p_digits,
    parse_partition,
)
from unipjordan.expr import Atom, Dual, Sum, Tensor, Twist, parse_expr, render_expr
from unipjordan.oracle import (
    DimensionCapError,
    FpMatrix,
    NotUnipotentError,
    direct_sum,
    expr_dim,
    expr_matrix,
    identity_matrix,
    jordan_type_of_unipotent,
    kron,
    oracle_certificate,
    oracle_eval,
    pascal_matrix,
    rank_mod_p,
    rank_sequence,
)
from unipjordan.sl2 import eval_expr, tensor_jordan, tilting_dim, weyl_jordan


def reference_matrix(e, p):
    """Matrix of u on a T-free expression by plain int64 numpy: Pascal
    rows by the binomial recurrence, np.kron, block placement, then % p."""
    if isinstance(e, (Dual, Twist)):
        return reference_matrix(e.inner, p)
    if isinstance(e, Atom) and e.kind == "V":
        n = e.weight + 1
        P = np.zeros((n, n), dtype=np.int64)
        P[0] = 1
        for i in range(1, n):  # C(j, i) = C(j-1, i-1) + C(j-1, i)
            P[i, i:] = np.cumsum(P[i - 1, i - 1:n - 1]) % p
        return P
    if isinstance(e, Atom):  # Steinberg: L(l) = (x) V(d) over the base-p digits d
        M, w = np.ones((1, 1), dtype=np.int64), e.weight
        while w:
            w, d = divmod(w, p)
            M = np.kron(M, reference_matrix(Atom("V", d), p)) % p
        return M
    A, B = reference_matrix(e.left, p), reference_matrix(e.right, p)
    if isinstance(e, Tensor):
        return np.kron(A, B) % p
    out = np.zeros((A.shape[0] + B.shape[0],) * 2, dtype=np.int64)
    out[:A.shape[0], :A.shape[0]], out[A.shape[0]:, A.shape[0]:] = A, B
    return out


def float_matrix(e, p):
    """Matrix of u on a T-free expression, filled whole by _fill in the
    kernel's float type for its dimension."""
    import unipjordan.oracle as oracle_mod
    n = expr_dim(e, p)
    return oracle_mod._fill(e, p, np.zeros((n, n), oracle_mod._float_dtype(n, p)))


def small_trees(seed, count, max_dim):
    """(tree, p) pairs of T-free trees of dimension <= max_dim, with sums,
    tensors, twists and duals, at p = 2, 3, 5, 7 and at 1009, where the
    kernel works in float64."""
    rng = random.Random(seed)
    primes = (2, 3, 5, 7, 1009)
    out = []
    while len(out) < count:
        p = primes[len(out) % len(primes)]
        e = rand_expr(rng, depth=rng.randrange(0, 4), p=p, kinds="LV",
                      max_weight=3 * p * p if p < 100 else 2 * p + 40)
        if expr_dim(e, p) <= max_dim:
            out.append((e, p))
    return out


def node_kinds(e):
    if isinstance(e, Atom):
        return {e.kind}
    if isinstance(e, (Dual, Twist)):
        return {type(e).__name__} | node_kinds(e.inner)
    return {type(e).__name__} | node_kinds(e.left) | node_kinds(e.right)


def sum_places(e):
    """Where e has sums: in a tensor's left or right factor, under a dual
    or under a twist."""
    if isinstance(e, Atom):
        return set()
    if isinstance(e, (Dual, Twist)):
        over = {f"{type(e).__name__} over Sum"} if "Sum" in node_kinds(e.inner) else set()
        return over | sum_places(e.inner)
    out = sum_places(e.left) | sum_places(e.right)
    if isinstance(e, Tensor):
        out |= {f"Sum in {side} factor" for side, f in (("left", e.left), ("right", e.right))
                if "Sum" in node_kinds(f)}
    return out


def block_trees(seed, count, block):
    """(tree, p) pairs of T-free trees of dimension at most 600 for the
    block split, at p = 2, 3, 5, 7: random trees; tensors of two sums with
    duals and twists over them; and sums of dimension block - 1, block and
    block + 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = (2, 3, 5, 7)[len(out) % 4]
        shape = len(out) % 3

        def small():
            return rand_expr(rng, depth=rng.randrange(0, 3), p=p, kinds="LV", max_weight=12)

        def wrap(x):
            return rng.choice((x, Dual(x), Twist(x, rng.randrange(1, 3))))

        if shape == 0:
            e = rand_expr(rng, depth=rng.randrange(1, 5), p=p, kinds="LV")
        elif shape == 1:
            e = wrap(Tensor(wrap(Sum(small(), small())), wrap(Sum(small(), small()))))
        else:
            target = block - 1 + (len(out) // 3) % 3
            core = Tensor(wrap(Sum(small(), small())), wrap(Sum(small(), small())))
            if expr_dim(core, p) >= target:
                continue
            pad = Atom("V", target - expr_dim(core, p) - 1)
            e = wrap(Sum(core, pad) if rng.random() < 0.5 else Sum(pad, core))
        if expr_dim(e, p) <= 600:
            out.append((e, p))
    return out


def float64_trees(seed, count):
    """(tree, 107) pairs of T-free trees of 187 to 400 rows with sums: at
    p = 107 their whole dimension needs float64, while a block of at most
    128 rows alone would fit float32."""
    rng = random.Random(seed)
    out = [(parse_expr("V(100)+V(100)+V(10)"), 107)]
    while len(out) < count:
        def small():
            return rand_expr(rng, depth=rng.randrange(0, 3), p=107, kinds="LV", max_weight=24)

        e = Tensor(Sum(small(), small()), Sum(small(), small()))
        if 187 <= expr_dim(e, 107) <= 400:
            out.append((e, 107))
    return out


# expressions above the block width whose plan has tensor nodes: L atoms
# of three or more digits, one-dimensional factors, repeated subterms,
# sums inside factors, and float64 at p = 1009
PLANNED = [(parse_expr(text), p) for text, p in (
    ("L(26)*V(10)", 3), ("L(124)*V(3)", 5), ("L(255)", 2), ("V(2)*L(342)^*", 7),
    ("L(80)*(V(2)+L(4))", 3),
    ("V(0)*V(200)", 5), ("(L(0)*(V(100)+V(50)))[1]", 3), ("V(150)^**L(0)", 7),
    ("V(12)*V(12)+V(12)*V(12)^*", 5), ("(V(3)+V(3))*(V(3)+V(3))*V(6)", 2),
    ("(V(10)+L(7))*V(20)", 3), ("V(30)*(V(4)+V(4)^*+V(1))", 7),
    ("V(20)*V(30)", 1009), ("(V(5)+V(6))*V(40)", 1009), ("L(1024)*V(30)", 1009),
    # V atoms split by Lucas' theorem, once or repeatedly; leaves that are
    # one matrix under two expressions (L(3) and V(3) at p = 5, a dual
    # inside a sum)
    ("V(2047)", 2), ("V(1457)", 3), ("V(249)", 5), ("V(685)", 7), ("V(1151)*V(1)", 2),
    ("V(624)", 5), ("(L(3)+V(3))*V(200)", 5),
    ("L(3)*V(60)+(V(3)^*+V(1))*V(60)+(V(3)+V(1))^**V(60)", 5),
    # V atoms that p does not divide: a free Lucas part plus a remainder
    # leaf, repeatedly; at p = 13, 169 rows is a tensor alone and 171 rows
    # a free part plus V(1)
    ("V(1599)", 3), ("V(1151)", 5), ("V(1023)", 7), ("V(639)", 3),
    ("V(168)", 13), ("V(170)", 13),
    # the leaves V(3) and V(1)*V(1) and the pair kron(J_2, J_2) at p = 2
    # are one matrix under three names
    ("V(3)*V(40)+V(1)*V(1)*V(40)", 2), ("V(1)*V(1)*V(40)+V(3)*V(41)", 2),
)]


def weyl_split(n, block, p):
    """Whether the plan splits a V atom of n = qp + s rows, s < p: into
    V(qp - 1), by Lucas' theorem V(q - 1) (x) V(p - 1), and V(s - 1)."""
    return n > block and n >= p * p


def leaf_count(e, block, p):
    """Leaves of e's plan, counted with repeats: subexpressions of at most
    block rows and V atoms; above block rows an L atom splits into its
    digits and a V atom as weyl_split says, with no leaf for s = 0."""
    n = expr_dim(e, p)
    if isinstance(e, (Dual, Twist)):
        return leaf_count(e.inner, block, p)
    if n <= block:
        return 1
    if isinstance(e, Atom) and e.kind == "V":
        if not weyl_split(n, block, p):
            return 1
        q, s = divmod(n, p)
        return leaf_count(Atom("V", q * p - 1 if s else q - 1), block, p) + 1
    if isinstance(e, Atom):
        digits = [Atom("V", d) for d in base_p_digits(e.weight, p).digits if d]
        return leaf_count(functools.reduce(Tensor, digits), block, p)
    return leaf_count(e.left, block, p) + leaf_count(e.right, block, p)


class TestFpMatrix:
    def test_entry_validation(self):
        with pytest.raises(DomainError):
            FpMatrix(np.array([[5]], dtype=np.int64), 5)
        with pytest.raises(DomainError):
            FpMatrix(np.array([[-1]], dtype=np.int64), 5)
        with pytest.raises(DomainError):
            FpMatrix(np.array([1, 2], dtype=np.int64), 5)
        with pytest.raises(DomainError, match="int64, got float64"):
            FpMatrix(np.eye(2), 5)

    def test_compared_and_hashed_by_identity(self):
        # the numpy field would make generated __eq__ and __hash__ raise
        M, twin = pascal_matrix(3, 5), pascal_matrix(3, 5)
        assert M == M and M != twin and (M == twin) is False
        assert np.array_equal(M.array, twin.array)
        assert {M} == {M} and len({M, twin}) == 2

    def test_non_array_refused(self):
        for a in ([[1, 0], [0, 1]], ((1,),), 7):
            with pytest.raises(DomainError, match="numpy array"):
                FpMatrix(a, 5)

    def test_builder_outputs_pass_the_public_check(self):
        # every builder returns int64 residues through FpMatrix's own check
        for e, p in small_trees(20, 100, 300):
            M = expr_matrix(e, p)
            parts = [M, pascal_matrix(expr_dim(e, p) - 1, p), identity_matrix(3, p)]
            parts += [kron(M, pascal_matrix(p - 1 if p < 100 else 2, p)),
                      direct_sum(M, parts[1])]
            for X in parts:
                assert X.array.dtype == np.int64
                assert np.array_equal(FpMatrix(X.array, p).array, X.array)

    def test_pascal_examples(self):
        assert pascal_matrix(1, 7).array.tolist() == [[1, 1], [0, 1]]
        assert pascal_matrix(2, 2).array.tolist() == [[1, 1, 1], [0, 1, 0], [0, 0, 1]]

    @pytest.mark.parametrize("m,p", [(5, 5), (10, 3), (17, 7), (40, 2)])
    def test_pascal_entries_are_binomials(self, m, p):
        P = pascal_matrix(m, p).array
        for i in range(m + 1):
            for j in range(m + 1):
                assert P[i, j] == math.comb(j, i) % p

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_pascal_at_prime_power_edges(self, p):
        # Lucas' theorem builds the matrix from Kronecker levels; each
        # level boundary m + 1 = p^k, and one on either side of it
        q = p
        while q - 1 <= 400:
            for n in (q - 1, q, q + 1):
                P = pascal_matrix(n - 1, p).array
                want = [[math.comb(j, i) % p for j in range(n)] for i in range(n)]
                assert P.tolist() == want, (n, p)
            q *= p

    def test_pascal_digit_block_at_large_prime(self):
        # m > p for a prime above 100: a 3 x 3 digit block over the
        # 101 x 101 one, the last level cut to 251 rows
        P = pascal_matrix(250, 101)
        assert P.array.dtype == np.int64
        assert P.array.tolist() == [[math.comb(j, i) % 101 for j in range(251)]
                                    for i in range(251)]

    def test_kron_matches_integer_kron(self):
        # both loop orientations (the smaller factor on either side),
        # non-square factors and a large prime
        rng = np.random.default_rng(31)
        for p in (2, 3, 7, 101, 1009):
            for _ in range(12):
                a = rng.integers(0, p, tuple(rng.integers(1, 7, 2)))
                b = rng.integers(0, p, tuple(rng.integers(1, 7, 2)))
                for x, y in ((a, b), (b, a)):
                    got = kron(FpMatrix(x, p), FpMatrix(y, p)).array
                    assert got.dtype == np.int64
                    assert np.array_equal(got, np.kron(x, y) % p)

    def test_kron_identity(self):
        assert np.array_equal(kron(identity_matrix(2, 5), identity_matrix(3, 5)).array,
                              np.eye(6, dtype=np.int64))

    def test_direct_sum_dims(self):
        s = direct_sum(pascal_matrix(2, 5), pascal_matrix(4, 5))
        assert s.rows == s.cols == 8

    def test_characteristic_mismatch(self):
        with pytest.raises(DomainError):
            kron(pascal_matrix(1, 2), pascal_matrix(1, 3))
        with pytest.raises(DomainError):
            direct_sum(pascal_matrix(1, 2), pascal_matrix(1, 3))


class TestRank:
    def test_against_reference(self):
        rng = np.random.default_rng(8)
        for p in (2, 3, 5, 7, 11, 13):
            for trial in range(20):
                m = int(rng.integers(1, 60))
                n = int(rng.integers(1, 60))
                if trial % 2:
                    k = int(rng.integers(1, min(m, n) + 1))
                    A = (rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n))) % p
                else:
                    A = rng.integers(0, p, (m, n))
                assert rank_mod_p(A, p) == naive_rank(A, p)
                # integers outside [0, p) are reduced first
                shifted = A + p * rng.integers(-3, 4, A.shape)
                assert rank_mod_p(shifted, p) == naive_rank(A, p)

    def test_blocked_path_against_reference(self):
        # shapes on both sides of the kernel's block width, so that reductions
        # carry across blocks, on rank-deficient products
        import unipjordan.oracle as oracle_mod
        assert 80 < oracle_mod._BLOCK < 300
        rng = np.random.default_rng(9)
        for p in (2, 3, 5, 7):
            for _ in range(4):
                m = int(rng.integers(80, 300))
                n = int(rng.integers(80, 300))
                k = int(rng.integers(1, min(m, n) + 1))
                A = (rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n))) % p
                assert rank_mod_p(A, p) == naive_rank(A, p)

    def test_integers_of_any_size_reduced_exactly(self):
        # entries past int64, in object and uint64 arrays, and integral floats
        assert rank_mod_p([[2 ** 70, 1], [1, 1]], 3) == 1  # 2^70 = 1 mod 3
        assert rank_mod_p([[2 ** 70 + 1, 1], [1, 1]], 3) == 2
        assert rank_mod_p([[-2 ** 70, 1], [1, 1]], 5) == 1  # -2^70 = 1 mod 5
        assert rank_mod_p([[-2 ** 70, 1], [1, 1]], 7) == 2
        for top, rank in ((2 ** 64 - 1, 2), (2 ** 64 - 3, 1)):  # 2^64 - 3 = 1 mod 3
            assert rank_mod_p(np.array([[top, 1], [1, 1]], dtype=np.uint64), 3) == rank
        assert rank_mod_p([[2.0, 1.0], [1.0, 2.0]], 3) == 1
        assert rank_mod_p([[1e30, 1], [1, 1]], 3) == 1  # int(1e30) = 1 mod 3
        assert rank_mod_p(np.array([[3, 1], [1, 1]], dtype=np.int8), 1009) == 2

    def test_non_integral_entries_refused(self):
        for M in ([[2.5, 0], [0, 1.0]], [[float("nan"), 1], [1, 1]],
                  [[float("inf"), 1], [1, 1]], [[2 ** 70, 0.5]], [["1", 0], [0, 1]],
                  np.array([[1 + 0j, 0], [0, 1]])):
            with pytest.raises(DomainError):
                rank_mod_p(M, 3)
        with pytest.raises(DomainError):
            rank_mod_p([1, 2, 3], 3)

    def test_ragged_rows_refused(self):
        for M in ([[1, 2], [3]], [[1], [2, 3], []]):
            with pytest.raises(DomainError, match="same length"):
                rank_mod_p(M, 5)
        assert rank_mod_p(np.zeros((0, 3), dtype=np.int64), 5) == 0


class TestPackedRanks:
    # one _ranks call on a block-diagonal pack reads each member's rank
    # sequence off the pivot columns that fall in the member's columns
    @staticmethod
    def member(rng, p):
        """Pascal V(m), m < 300, often V(0); or kron(J_a, J_b), a, b <= p."""
        kind = rng.randrange(3)
        if kind == 0:
            return pascal_matrix(0, p).array
        if kind == 1:
            return pascal_matrix(rng.randrange(300), p).array
        a, b = rng.randrange(1, min(p, 17) + 1), rng.randrange(1, min(p, 17) + 1)
        J = [np.eye(k, dtype=np.int64) + np.eye(k, k=1, dtype=np.int64) for k in (a, b)]
        return np.kron(*J) % p

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 1009])
    def test_pack_reads_each_members_ranks(self, p):
        import unipjordan.oracle as oracle_mod
        dtype = np.float64 if p == 1009 else np.float32
        rng = random.Random(p)
        seen = set()
        for _ in range(8):
            members = [self.member(rng, p) for _ in range(rng.randrange(1, 7))]
            cuts = np.cumsum([M.shape[0] for M in members]).tolist()
            if p < 1009:
                assert oracle_mod._float_dtype(cuts[-1], p) == dtype
            pack = np.zeros((cuts[-1],) * 2, dtype)
            for M, end in zip(members, cuts):
                pack[end - M.shape[0]:end, end - M.shape[0]:end] = M
            got = oracle_mod._ranks(pack, p, cuts)
            alone = [oracle_mod._ranks(M.astype(dtype), p, [M.shape[0]])[0] for M in members]
            assert got == alone, (p, [M.shape[0] for M in members])
            seen |= {"V(0)"} if [1, 0] in alone else set()
            seen |= {"lengths differ"} if len({len(r) for r in alone}) > 1 else set()
        assert seen == {"V(0)", "lengths differ"}


class TestJordanOfUnipotent:
    def test_identity(self):
        for n in (0, 1, 4, 9):
            # the rank sequence ends at its first zero, also for n = 0
            assert rank_sequence(identity_matrix(n, 3)) == ([n, 0] if n else [0])
            assert jordan_type_of_unipotent(identity_matrix(n, 3)) == \
                JordanType.from_blocks([(1, n)], 3)
        assert str(jordan_type_of_unipotent(identity_matrix(0, 3))) == "0"

    def test_pascal_examples(self):
        assert jordan_type_of_unipotent(pascal_matrix(10, 5)) == parse_partition("5^2 1", 5)
        assert jordan_type_of_unipotent(pascal_matrix(5, 5)) == parse_partition("5 1", 5)

    def test_kron_pascal_examples(self):
        got = jordan_type_of_unipotent(kron(pascal_matrix(1, 5), pascal_matrix(4, 5)))
        assert got == tensor_jordan(2, 5, 5) == parse_partition("5^2", 5)
        got = jordan_type_of_unipotent(kron(pascal_matrix(2, 5), pascal_matrix(2, 5)))
        assert got == tensor_jordan(3, 3, 5) == parse_partition("5 3 1", 5)

    def test_rejects_non_unipotent(self):
        # order-3 element of GL2(F2)
        M = FpMatrix(np.array([[0, 1], [1, 1]], dtype=np.int64), 2)
        with pytest.raises(NotUnipotentError):
            jordan_type_of_unipotent(M)

    def test_rejects_order_p_squared(self):
        J4 = np.eye(4, dtype=np.int64)
        J4[0, 1] = J4[1, 2] = J4[2, 3] = 1
        with pytest.raises(NotUnipotentError):
            jordan_type_of_unipotent(FpMatrix(J4, 2))
        # the same matrix is fine at p = 5
        assert jordan_type_of_unipotent(FpMatrix(J4, 5)) == parse_partition("4", 5)

    def test_non_triangular_conjugate(self, monkeypatch):
        # a permuted Pascal matrix is not triangular, so the level
        # products take the general path, across several column blocks;
        # conjugating keeps the rank of every power of M - I
        import unipjordan.oracle as oracle_mod
        flags = []
        row_mul = oracle_mod._row_mul

        def spy(R, pivcols, N, p, triangular):
            flags.append(triangular)
            return row_mul(R, pivcols, N, p, triangular)

        monkeypatch.setattr(oracle_mod, "_row_mul", spy)
        rng = np.random.default_rng(13)
        for m, p in ((599, 2), (560, 5), (150, 7)):
            perm = rng.permutation(m + 1)
            pascal = pascal_matrix(m, p)
            flags.clear()
            ranks = rank_sequence(pascal)
            assert flags and all(flags)
            P = pascal.array[np.ix_(perm, perm)]
            assert np.tril(P, -1).any()
            flags.clear()
            assert rank_sequence(FpMatrix(P, p)) == ranks
            assert flags and not any(flags)
            assert jordan_type_of_unipotent(FpMatrix(P, p)) == weyl_jordan(m, p)

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            rank_sequence(FpMatrix(np.zeros((2, 3), dtype=np.int64), 2))

    def test_rank_sequence_sanity(self):
        rng = random.Random(12)
        for p in (2, 3, 5, 7):
            for _ in range(25):
                e = rand_expr(rng, depth=2, p=p, kinds="LV")
                if expr_dim(e, p) > 200:
                    continue
                ranks = rank_sequence(expr_matrix(e, p))
                n = ranks[0]
                assert ranks[-1] == 0
                assert all(a >= b for a, b in zip(ranks, ranks[1:]))
                padded = ranks + [0]
                for k in range(1, len(ranks)):
                    assert padded[k - 1] - 2 * padded[k] + padded[k + 1] >= 0
                assert len(ranks) - 2 <= p


class TestSuperadditivity:
    def test_size_p_count_dominates_filtration(self):
        # random unipotent upper-triangular matrices with known type, cut
        # along coordinate flags: blocks of size p in the whole are at
        # least the sum over the diagonal quotients
        rng = np.random.default_rng(13)
        for p in (2, 3, 5):
            for _ in range(12):
                sizes = [int(rng.integers(1, p + 1)) for _ in range(int(rng.integers(2, 6)))]
                n = sum(sizes)
                D = np.eye(n, dtype=np.int64)
                pos = 0
                for s in sizes:
                    for k in range(s - 1):
                        D[pos + k, pos + k + 1] = 1
                    pos += s
                Q = np.triu(rng.integers(0, p, (n, n)), 1) % p + np.eye(n, dtype=np.int64)
                M = (Q @ D @ unit_upper_inverse(Q, p)) % p
                whole = jordan_type_of_unipotent(FpMatrix(M, p))
                assert whole == JordanType.from_sizes(sizes, p)  # conjugation-invariant
                cuts = sorted(rng.choice(range(1, n), size=min(2, n - 1), replace=False)) \
                    if n > 1 else []
                bounds = [0] + list(cuts) + [n]
                total = 0
                for a, b in zip(bounds, bounds[1:]):
                    part = jordan_type_of_unipotent(FpMatrix(M[a:b, a:b] % p, p))
                    total += part.size_p_multiplicity
                assert whole.size_p_multiplicity >= total


class TestOracleEval:
    def test_examples(self):
        assert oracle_eval(parse_expr("V(10)"), 5) == parse_partition("5^2 1", 5)
        assert oracle_eval(parse_expr("L(0)"), 5) == parse_partition("1", 5)
        assert oracle_eval(parse_expr("L(14)"), 5) == parse_partition("5^3", 5)

    def test_t_atoms_rejected(self):
        with pytest.raises(DomainError):
            oracle_eval(parse_expr("T(6)"), 5)

    def test_dim_cap(self):
        with pytest.raises(DimensionCapError):
            oracle_eval(parse_expr("V(99)*V(99)"), 5, dim_cap=4096)
        # the cap is configurable
        oracle_eval(parse_expr("V(9)*V(9)"), 5, dim_cap=100)

    def test_dim_cap_checked_before_any_term(self, monkeypatch):
        import unipjordan.oracle as oracle_mod

        def fail(*args):
            raise AssertionError("a matrix was planned past the dimension cap")

        for name in ("_fill", "_plan", "_ranks"):
            monkeypatch.setattr(oracle_mod, name, fail)
        long_sum = parse_expr("+".join(["V(63)"] * 40))  # 2560 rows
        for f in (oracle_eval, oracle_certificate):
            with pytest.raises(DimensionCapError):
                f(Tensor(long_sum, long_sum), 5)

    def test_block_ranks_match_whole_matrix(self, monkeypatch):
        # the certificate path types leaves and pairs kron(J_a, J_b),
        # packed into diagonal blocks, and composes the types up the plan;
        # the ranks of the composed type must be those of the whole matrix
        import unipjordan.oracle as oracle_mod
        B = oracle_mod._BLOCK
        cases = [(e, p, oracle_mod._ranks(float_matrix(e, p), p, [expr_dim(e, p)])[0])
                 for e, p in block_trees(31, 240, B) + float64_trees(32, 8) + PLANNED]
        fill, ranks, kron_lead = oracle_mod._fill, oracle_mod._ranks, oracle_mod._kron_lead
        leaves, pairs, built, filled, blocks, dtypes, depth = [], [], [], [], [], [], []
        in_place = []  # does each member built share memory with its block?

        def spy_fill(e, p, out):
            filled.append(out.shape[0])
            if not depth:  # a leaf, not a node inside one
                leaves.append(e)
                built.append(out)
            depth.append(e)
            try:
                return fill(e, p, out)
            finally:
                depth.pop()

        def spy_kron(x, y, p, out):
            if not depth:  # a pair kron(J_a, J_b), not a tensor inside a leaf
                pairs.append((x.shape[0], y.shape[0]))
                built.append(out)
            return kron_lead(x, y, p, out)

        def spy_ranks(N, p, cuts):
            dtypes.append(N.dtype.name)
            blocks.append(N.shape[0])
            # each member, leaf or pair, is written straight into N
            in_place.extend(np.shares_memory(M, N) for M in built)
            built.clear()
            return ranks(N, p, cuts)

        monkeypatch.setattr(oracle_mod, "_fill", spy_fill)
        monkeypatch.setattr(oracle_mod, "_kron_lead", spy_kron)
        monkeypatch.setattr(oracle_mod, "_ranks", spy_ranks)
        seen = set()
        for e, p, want in cases:
            for log in (leaves, pairs, built, filled, blocks, dtypes, in_place):
                log.clear()
            n = want[0]
            cert = oracle_certificate(e, p)
            assert cert["ranks"] == want, (render_expr(e), p)
            assert cert["dtype"] == np.dtype(oracle_mod._float_dtype(n, p)).name
            # every block runs in the dtype of the whole dimension
            assert dtypes and all(d == cert["dtype"] for d in dtypes)
            # no leaf expression and no pair is built twice in one request,
            # each is built in its block, and no matrix is larger than the
            # block width or p^2
            assert len(set(leaves)) == len(leaves), (render_expr(e), p)
            assert len(set(pairs)) == len(pairs), (render_expr(e), p)
            assert in_place and all(in_place) and not built, (render_expr(e), p)
            assert max(filled + blocks) <= max(B, p * p), (render_expr(e), p)
            if n <= B:
                assert blocks == [n]
                seen.add("one block")
            else:
                seen.add("planned" if len(blocks) > 1 else "one leaf")
                seen |= {"pairs"} if pairs else set()
                seen |= {"repeated leaf"} if len(leaves) < leaf_count(e, B, p) else set()
            seen |= sum_places(e) | {f"dim {n}", cert["dtype"]}
        assert seen >= {"planned", "one leaf", "one block", "pairs", "repeated leaf",
                        "dim 127", "dim 128",
                        "dim 129",
                        "float32", "float64",
                        "Sum in left factor", "Sum in right factor",
                        "Dual over Sum", "Twist over Sum"}

    def test_pairs_with_a_one_row_factor_are_not_built(self, monkeypatch):
        # kron(J_1, J_b) is J_b: a pair (1, b) is typed {b: 1} without a
        # matrix; the leaves here build no Kronecker product with one row
        import unipjordan.oracle as oracle_mod
        first_rows = []
        kron_lead = oracle_mod._kron_lead

        def spy(x, y, p, out):
            first_rows.append(x.shape[0])
            return kron_lead(x, y, p, out)

        monkeypatch.setattr(oracle_mod, "_kron_lead", spy)
        for text, p in (("(V(0)+V(130))*V(20)", 5), ("(V(0)+V(130))*(V(1)+V(10))", 3),
                        ("V(129)*(V(2)+V(0)+V(10))", 7)):
            e = parse_expr(text)
            first_rows.clear()
            assert oracle_eval(e, p) == eval_expr(e, p).jordan, text
            assert first_rows and 1 not in first_rows, text

    def test_split_weyl_atom_builds_no_matrix_above_block_width(self, monkeypatch):
        # V(4095) at p = 2, at the default cap, is planned by Lucas' theorem
        # as the 128-row leaf V(127), the 2-row leaf V(1) and kron(J_2, J_2);
        # V(1599) at p = 3, V(1151) at p = 5 and V(1023) at p = 7, which p
        # does not divide, as free Lucas parts plus remainder leaves
        import unipjordan.oracle as oracle_mod
        rows = []
        fill, ranks = oracle_mod._fill, oracle_mod._ranks

        def spy_fill(e, p, out):
            rows.append(out.shape[0])
            return fill(e, p, out)

        def spy_ranks(N, p, cuts):
            rows.append(N.shape[0])
            return ranks(N, p, cuts)

        monkeypatch.setattr(oracle_mod, "_fill", spy_fill)
        monkeypatch.setattr(oracle_mod, "_ranks", spy_ranks)
        assert expr_dim(parse_expr("V(4095)"), 2) == DEFAULT_DIM_CAP
        for text, p in (("V(4095)", 2), ("V(1599)", 3), ("V(1151)", 5), ("V(1023)", 7)):
            e = parse_expr(text)
            rows.clear()
            assert oracle_eval(e, p) == eval_expr(e, p).jordan, text
            assert rows and max(rows) <= oracle_mod._BLOCK, text

    def test_weyl_atom_splits_only_from_p_squared_rows(self, monkeypatch):
        # a V atom of n = qp + s rows, s < p, above the block width is
        # planned as V(q - 1) (x) V(p - 1) plus the leaf V(s - 1) only when
        # n >= p^2: below, the pair kron(J_q, J_p) would have as many rows
        # as the atom
        import unipjordan.oracle as oracle_mod
        blocks = []
        ranks = oracle_mod._ranks

        def spy_ranks(N, p, cuts):
            blocks.append(N.shape[0])
            return ranks(N, p, cuts)

        monkeypatch.setattr(oracle_mod, "_ranks", spy_ranks)

        def V(m):  # a leaf's plan: the atom and its dimension
            return Atom("V", m), m + 1

        V12 = (Tensor, V(12), V(12)), 169
        for text, p, plan, largest in (
                ("V(142)", 11, ((Tensor, V(12), V(10)), 143), 121),  # 143 = 13 * 11
                ("V(155)", 13, V(155), 156),  # 156 = 12 * 13
                ("V(167)", 13, V(167), 168),  # 168 = 12 * 13 + 12
                ("V(168)", 13, V12, 169),  # 169 = 13 * 13
                ("V(170)", 13, ((13, V12, V(1)), 171), 169)):  # 171 = 13 * 13 + 2
            e = parse_expr(text)
            assert oracle_mod._plan(e, p) == plan
            blocks.clear()
            assert oracle_eval(e, p) == eval_expr(e, p).jordan
            assert max(blocks) == largest, text

    def test_split_weyl_atom_ranks_match_whole_matrix(self):
        # a V atom of qp + s rows, p not dividing it, is typed as its free
        # Lucas part plus the leaf V(s - 1); its ranks are the whole
        # Pascal matrix's
        import unipjordan.oracle as oracle_mod
        cases = [(m, p) for p in (2, 3, 5, 7) for m in range(129, 420, 7)]
        cases += [(m, p) for p in (11, 13) for m in range(p * p - 1, p * p + 31)]
        for m, p in cases:
            assert oracle_mod._block_ranks(Atom("V", m), p, DEFAULT_DIM_CAP)[0] \
                == rank_sequence(pascal_matrix(m, p)), (m, p)

    def test_split_weyl_atom_checks_its_free_part(self, monkeypatch):
        # the free part of V(1599) at p = 3 is built from the pairs
        # kron(J_2, J_3) and kron(J_3, J_3); a wrong type of J_2 (x) J_3
        # ({2: 3} in place of {3: 2}) leaves it not free, which the split
        # must refuse rather than take as a direct summand
        import unipjordan.oracle as oracle_mod
        e = parse_expr("V(1599)")
        assert oracle_certificate(e, 3)["jordan"] == [[3, 533], [1, 1]]
        sizes = oracle_mod._sizes

        def wrong(ranks):
            t = sizes(ranks)
            return {2: 3} if t == {3: 2} else t

        monkeypatch.setattr(oracle_mod, "_sizes", wrong)
        with pytest.raises(RuntimeError, match="bug"):
            oracle_certificate(e, 3)

    def test_build_matches_int64_reference(self):
        # the matrix is built once, in place: in the kernel's float type
        # for the certificate path and in int64 for expr_matrix
        import unipjordan.oracle as oracle_mod
        seen = set()
        for e, p in small_trees(21, 250, 300):
            want = reference_matrix(e, p)
            n = want.shape[0]
            got = float_matrix(e, p)
            assert got.dtype == oracle_mod._float_dtype(n, p)
            assert np.array_equal(got, want), (render_expr(e), p)
            assert np.array_equal(expr_matrix(e, p).array, want)
            seen |= node_kinds(e) | {got.dtype.name}
        assert seen >= {"L", "V", "Sum", "Tensor", "Twist", "Dual", "float32", "float64"}

    def test_twist_and_dual_act_trivially_on_matrices(self):
        # entries lie in the prime field, fixed by Frobenius; this is a
        # tested invariant rather than an assumption
        rng = random.Random(14)
        for p in (2, 3, 5):
            for _ in range(30):
                e = rand_expr(rng, depth=2, p=p, kinds="LV")
                if expr_dim(e, p) > 300:
                    continue
                M = expr_matrix(e, p)
                for wrapped in (Dual(e), Twist(e, 2)):
                    assert np.array_equal(expr_matrix(wrapped, p).array, M.array)

    def test_agreement_with_closed_forms_randomized(self):
        rng = random.Random(15)
        checked = 0
        for p in (2, 3, 5, 7):
            for _ in range(150):
                e = rand_expr(rng, depth=rng.randrange(0, 4), p=p, kinds="LV")
                if expr_dim(e, p) > 512:
                    continue
                assert oracle_eval(e, p) == eval_expr(e, p).jordan
                checked += 1
        assert checked > 200

    def test_tilting_consistency_via_steinberg_tensor(self):
        # T(p-1+r) for 1 <= r <= p-1 is a 2p-dimensional direct summand of
        # L(p-1) (x) L(r); the oracle shows that module is free over K[u]
        # (all blocks of size p), and a direct summand of a free module is
        # free, forcing 2.J_p
        for p in (2, 3, 5, 7):
            for r in range(0, p):
                t = oracle_eval(Tensor(Atom("L", p - 1), Atom("L", r)), p)
                assert t.blocks == ((p, r + 1),)
                if r >= 1:
                    assert tilting_dim(p - 1 + r, p) == 2 * p


class TestCertificate:
    def test_verify_corpus_hash(self, monkeypatch):
        # the certificates of the first 400 requests of the verify workload
        # at seeds 5, 7 and 11, as bench/workloads.py makes them
        import hashlib
        import importlib.util
        import itertools
        import json
        import pathlib
        import sys
        path = pathlib.Path(__file__).parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        certs = [oracle_certificate(parse_expr(r.args[0]), r.p) for seed in (5, 7, 11)
                 for r in itertools.islice(workloads.verify_stream(seed), 400)]
        assert hashlib.sha256(json.dumps(certs).encode()).hexdigest() == \
            "7c01aaaa457fa11b300b28b995097ab874f7c19e9f70d91a38af0ae3bc523f2f"

    def test_structure(self):
        cert = oracle_certificate(parse_expr("V(10)"), 5)
        assert cert["expr"] == "V(10)"
        assert cert["p"] == 5
        assert cert["dim"] == 11
        assert cert["dtype"] == "float32"
        assert cert["ranks"] == [11, 8, 6, 4, 2, 0]
        assert cert["jordan"] == [[5, 2], [1, 1]]
        # 40 (1009 - 1)^2 + 1009 is past the float32 bound
        cert = oracle_certificate(parse_expr("V(39)"), 1009)
        assert cert["dtype"] == "float64"
        assert cert["ranks"] == list(range(40, -1, -1))

    def test_round_trips_through_json(self):
        import json
        cert = oracle_certificate(parse_expr("L(8)[1]^*"), 5)
        assert json.loads(json.dumps(cert)) == cert


class TestFallbackPaths:
    def test_numpy_only_panel_matches_reference(self):
        # the numpy kernel is the only path: shapes from a single panel up
        # to past the block width, including rank-deficient products
        import unipjordan.oracle as oracle_mod
        hi = oracle_mod._BLOCK + 72
        rng = np.random.default_rng(77)
        for p in (2, 3, 5, 7):
            for _ in range(6):
                m = int(rng.integers(1, hi))
                n = int(rng.integers(1, hi))
                k = int(rng.integers(1, min(m, n) + 1))
                A = (rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n))) % p
                assert rank_mod_p(A, p) == naive_rank(A, p)

    def test_numpy_only_oracle_agrees(self):
        # expression matrices up to dimension 200 straddle the block width
        rng = random.Random(78)
        for p in (2, 3, 5):
            for _ in range(20):
                e = rand_expr(rng, depth=2, p=p, kinds="LV")
                if expr_dim(e, p) > 200:
                    continue
                assert oracle_eval(e, p) == eval_expr(e, p).jordan

    def test_large_characteristic_uses_float64(self):
        import unipjordan.oracle as oracle_mod
        assert oracle_mod._float_dtype(50, 1009) == np.float64
        P = pascal_matrix(40, 1009)
        t = jordan_type_of_unipotent(P)
        assert t == parse_partition("41", 1009)
        rng = np.random.default_rng(79)
        A = rng.integers(0, 1009, (60, 60))
        assert rank_mod_p(A, 1009) == naive_rank(A, 1009)

    def test_absurd_characteristic_rejected(self):
        import unipjordan.oracle as oracle_mod
        with pytest.raises(DomainError, match=r"dimension 4096 .* GF\(1000000000\)"):
            oracle_mod._float_dtype(4096, 10 ** 9)

    def test_dtype_switch_at_its_edge(self):
        # n (p-1)^2 + p < 2^21 keeps float32: for p = 107 the last float32
        # dimension is 186.  Both sides must stay exact, on random and on
        # rank-deficient matrices and on rank sequences of unipotents
        import unipjordan.oracle as oracle_mod
        p = 107
        assert oracle_mod._float_dtype(186, p) == np.float32
        assert oracle_mod._float_dtype(187, p) == np.float64
        rng = np.random.default_rng(80)
        for n in (186, 187):
            A = rng.integers(0, p, (n, n))
            assert rank_mod_p(A, p) == naive_rank(A, p)
            k = n - 40
            B = (rng.integers(0, p, (n, k)) @ rng.integers(0, p, (k, n))) % p
            assert rank_mod_p(B, p) == naive_rank(B, p)
            full = np.full((n, n), p - 1)
            assert rank_mod_p(full, p) == 1
            assert jordan_type_of_unipotent(pascal_matrix(n - 1, p)) == \
                weyl_jordan(n - 1, p)


class TestEchelonRowSpace:
    def test_rows_span_input_row_space_with_unit_pivots(self):
        # rank_sequence relies on rowspace(R @ N) = rowspace(N^{k+1}),
        # which needs the echelon rows to be an actual row-space basis
        import unipjordan.oracle as oracle_mod
        B = oracle_mod._BLOCK
        rng = np.random.default_rng(55)

        def check(A, p, rank):
            R, piv = oracle_mod._echelon(A.astype(np.float64) % p, p)
            r = R.shape[0]
            assert r == rank(A, p) == len(piv)
            # unit pivots, and zeros below each pivot
            assert np.array_equal(np.tril(R[:, piv]), np.eye(r))
            if r:
                stacked = np.vstack([A % p, R.astype(np.int64)])
                assert rank(stacked, p) == r

        # a single panel, then shapes across the block width
        for lo, hi, rank in ((1, 100, naive_rank), (B - 30, B + 50, column_rank)):
            for p in (2, 3, 5, 7):
                for trial in range(10):
                    m = int(rng.integers(lo, hi))
                    n = int(rng.integers(lo, hi))
                    A = rng.integers(0, p, (m, n))
                    if trial % 2:
                        k = int(rng.integers(1, min(m, n) + 1))
                        A = (rng.integers(0, p, (m, k))
                             @ rng.integers(0, p, (k, n))) % p
                    check(A, p, rank)
        # three blocks at a large prime, dense and rank-deficient: panels
        # of many rounds carry their reductions into the later blocks
        p = 101
        for trial in range(4):
            m = int(rng.integers(300, 401))
            n = int(rng.integers(max(300, 2 * B + 1), 401))
            A = rng.integers(0, p, (m, n))
            if trial % 2:
                k = int(rng.integers(B + 1, min(m, n) - 20))
                A = (rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n))) % p
            check(A, p, column_rank)
        # a zero middle block with nonzeros after it: no pivot in that block
        for p in (2, 101):
            A = rng.integers(0, p, (300, 3 * B))
            A[:, B:2 * B] = 0
            check(A, p, column_rank)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_structured_levels_across_block_width(self, p):
        # N = Pascal(m, p) - I and the level products R @ N of the rank
        # sequence: the panels with long chains of lead collisions
        import unipjordan.oracle as oracle_mod
        for m in (oracle_mod._BLOCK - 1, oracle_mod._BLOCK + 1, 200, 257, 300):
            N = pascal_matrix(m, p).array.copy()
            N[np.diag_indices(m + 1)] = 0
            A = N
            while A.any():
                R, piv = oracle_mod._echelon(A.astype(np.float64), p)
                r = R.shape[0]
                R = R.astype(np.int64)
                assert r == len(piv) == column_rank(A, p), (m, p)
                assert all(R[i, piv[i]] == 1 for i in range(r))
                assert not np.tril(R[:, piv], -1).any()
                assert column_rank(np.vstack([A, R]), p) == r
                A = (R @ N) % p


class TestRowMul:
    # the level product R @ N mod p, with R's rows grouped by the column
    # block of their pivot, against plain int64 arithmetic
    @staticmethod
    def echelon(rng, pivcols, n, p):
        R = rng.integers(0, p, (len(pivcols), n))
        for i, c in enumerate(pivcols):
            R[i, :c] = 0
            R[i, c] = rng.integers(1, p)
        return R

    @staticmethod
    def pivot_sets(n, W, rng):
        yield [3, 17, W - 1, 3 * W + 2, 3 * W + 100, n - 1]  # blocks 1, 2 hold none
        yield [e for c in range(0, n, W) for e in (c, min(c + W, n) - 1)]  # block edges
        yield from ([0], [W], [2 * W + 7], [n - 1])  # one row
        yield sorted(rng.choice(n, n // 16, replace=False).tolist())

    @pytest.mark.parametrize("p", [2, 3, 1009])
    def test_against_int64_product(self, p):
        import unipjordan.oracle as oracle_mod
        W = oracle_mod._MUL_COLS
        rng = np.random.default_rng(16)
        for n in (4 * W, 4 * W + 37):
            dtype = oracle_mod._float_dtype(n, p)
            assert dtype == (np.float64 if p == 1009 else np.float32)
            dense = rng.integers(0, p, (n, n))
            for pivcols in self.pivot_sets(n, W, rng):
                R = self.echelon(rng, pivcols, n, p)
                for triangular in (True, False):
                    N = np.triu(dense) if triangular else dense
                    got = oracle_mod._row_mul(R.astype(dtype), pivcols, N.astype(dtype),
                                              p, triangular)
                    assert got.dtype == dtype
                    assert np.array_equal(got.astype(np.int64), (R @ N) % p), \
                        (n, pivcols[:4], triangular)


class TestUnipotentSolve:
    @staticmethod
    def conjugated_nilpotent(rng, n, p, chain):
        """A nilpotent n x n M over GF(p), conjugated out of triangular form;
        with chain, a single chain of nilpotency index n."""
        T = np.triu(rng.integers(0, p, (n, n)), 1)
        if chain:
            T = np.eye(n, k=1, dtype=np.int64)
        Lw = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
        Up = np.triu(rng.integers(0, p, (n, n)), 1) + np.eye(n, dtype=np.int64)
        Q = (Lw @ Up) % p
        Qinv = (unit_upper_inverse(Up, p) @ unit_upper_inverse(Lw.T, p).T) % p
        assert np.array_equal((Q @ Qinv) % p, np.eye(n, dtype=np.int64))
        M = (Q @ T @ Qinv) % p
        assert np.tril(M, -1).any() and np.triu(M, 1).any()
        return M

    @staticmethod
    def check(M, rhs, p):
        # X = rhs (I - M)^-1 is a residue matrix with X (I - M) = rhs
        import unipjordan.oracle as oracle_mod
        n = M.shape[0]
        X = oracle_mod._unipotent_solve((-M % p).astype(np.float64),
                                        rhs.astype(np.float64), p)
        X = X.astype(np.int64)
        assert X.shape == rhs.shape
        assert ((X >= 0) & (X < p)).all()
        assert np.array_equal((X @ (np.eye(n, dtype=np.int64) - M)) % p, rhs)

    def test_nilpotent_not_triangular(self):
        # B (I + S)^-1 for S = -M, M nilpotent but conjugated out of
        # triangular form; one M is a single long chain (index n)
        rng = np.random.default_rng(14)
        for p in (2, 3, 7, 101):
            for n, chain in ((5, False), (40, False), (90, True)):
                M = self.conjugated_nilpotent(rng, n, p, chain)
                B = rng.integers(0, p, (3, n))
                for rhs in (np.eye(n, dtype=np.int64), B):
                    self.check(M, rhs, p)

    def test_right_sides_on_both_sides_of_square(self):
        # B with at most n rows rides along in the doubling; a taller B
        # is multiplied by (I + S)^-1 found on its own.  n - 1, n, n + 1
        # and 4n rows run both association orders, at their boundary
        rng = np.random.default_rng(15)
        for p in (2, 3, 7, 101):
            for n, chain in ((6, False), (40, False), (70, True)):
                M = self.conjugated_nilpotent(rng, n, p, chain)
                for rows in (n - 1, n, n + 1, 4 * n):
                    self.check(M, rng.integers(0, p, (rows, n)), p)
