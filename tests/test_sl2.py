"""Closed-form Jordan calculus on SL2 modules.

Values marked as independently derived were computed with the matrix
oracle (rank sequences of explicit Kronecker/Pascal matrices) before
being frozen here; test_oracle re-checks the two routes against each
other on grids.
"""

import random
import warnings

import pytest

import unipjordan.sl2 as sl2
from helpers import rand_expr
from unipjordan.classtables import bundled_table, identify_from_expr
from unipjordan.cli import main
from unipjordan.core import DomainError, JordanType, base_p_digits
from unipjordan.expr import Atom, Dual, Sum, Tensor, Twist, parse_expr, render_expr
from unipjordan.sl2 import (
    eval_expr,
    irrep_char,
    irrep_jordan,
    tensor_jordan,
    tensor_jordan_types,
    tilting_char,
    tilting_dim,
    tilting_jordan,
    weyl_jordan,
)


def jt(text, p):
    from unipjordan.core import parse_partition
    return parse_partition(text, p)


def per_pair(a, b):
    """tensor_jordan_types by the per-pair tensor_jordan expansion."""
    acc = {}
    for s1, m1 in a.blocks:
        for s2, m2 in b.blocks:
            for size, mult in tensor_jordan(s1, s2, a.p).blocks:
                acc[size] = acc.get(size, 0) + mult * m1 * m2
    return JordanType.from_blocks(acc.items(), a.p)


def reference_jordan(e, p):
    """Jordan type of e folded node by node from the atoms' blocks with
    per_pair and JordanType.add."""
    if isinstance(e, Atom):
        w = e.weight
        if e.kind == "V":
            return JordanType.from_blocks([(p, w // p), (w % p + 1, 1)], p)
        if e.kind == "T":
            free = [(p, tilting_dim(w, p) // p)]
            return JordanType.from_blocks([(w + 1, 1)] if w < p else free, p)
        t = JordanType.from_blocks([(1, 1)], p)
        for d in base_p_digits(w, p).digits:
            t = per_pair(t, JordanType.from_blocks([(d + 1, 1)], p))
        return t
    if isinstance(e, Sum):
        return reference_jordan(e.left, p).add(reference_jordan(e.right, p))
    if isinstance(e, Tensor):
        return per_pair(reference_jordan(e.left, p), reference_jordan(e.right, p))
    return reference_jordan(e.inner, p)


class TestTensorJordan:
    def test_full_block_absorbs(self):
        assert tensor_jordan(3, 5, 5) == jt("5^3", 5)
        for p in (2, 3, 5, 7):
            for m in range(1, p + 1):
                assert tensor_jordan(m, p, p) == JordanType.from_blocks([(p, m)], p)

    def test_trivial_factor(self):
        for p in (2, 3, 5, 7, 11):
            for n in range(1, p + 1):
                assert tensor_jordan(1, n, p) == jt(str(n), p)

    def test_small_case_frozen_from_oracle(self):
        # rank sequence of the 6x6 Kronecker matrix over GF(5): J2 + J4
        assert tensor_jordan(2, 3, 5) == jt("4 2", 5)

    def test_unordered_arguments(self):
        assert tensor_jordan(5, 3, 5) == tensor_jordan(3, 5, 5)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            tensor_jordan(0, 3, 5)
        with pytest.raises(DomainError):
            tensor_jordan(2, 6, 5)

    def test_dimension(self):
        for p in (3, 5, 7, 11):
            for m in range(1, p + 1):
                for n in range(m, p + 1):
                    assert tensor_jordan(m, n, p).dim == m * n


class TestTensorJordanTypes:
    def test_two_by_two_char_two(self):
        a = JordanType.from_sizes([2], 2)
        assert tensor_jordan_types(a, a) == jt("2^2", 2)

    def test_empty_annihilates(self):
        empty = JordanType((), 3)
        assert tensor_jordan_types(empty, jt("3 1", 3)) == empty

    def test_mixed_frozen_from_oracle(self):
        # 8x8 Kronecker block sum over GF(3): J2 + 2*J3
        a = JordanType.from_sizes([3, 1], 3)
        b = JordanType.from_sizes([2], 3)
        assert tensor_jordan_types(a, b) == jt("3^2 2", 3)

    def test_characteristic_mismatch(self):
        with pytest.raises(DomainError):
            tensor_jordan_types(JordanType.from_sizes([2], 2), JordanType.from_sizes([2], 3))
        with pytest.raises(DomainError):  # a block larger than p
            tensor_jordan_types(JordanType.from_sizes([4], 3), JordanType.from_sizes([2], 3))

    def test_difference_arrays_match_per_pair_expansion(self):
        rng = random.Random(11)
        primes = [q for q in range(2, 102) if all(q % d for d in range(2, q))]
        for _ in range(3000):
            p = rng.choice(primes)

            def rand_type():
                return JordanType.from_blocks(
                    [(rng.randint(1, p), rng.randint(1, 4)) for _ in range(rng.randint(0, 6))], p)

            a, b = rand_type(), rand_type()
            assert tensor_jordan_types(a, b) == per_pair(a, b), (a, b)


class TestRefusals:
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: weyl_jordan(-1, 5), "dominant weight must be >= 0, got -1",
                     id="weyl-negative"),
        pytest.param(lambda: weyl_jordan(3, 4), "characteristic must be a prime, got 4",
                     id="weyl-composite"),
        pytest.param(lambda: irrep_jordan(-1, 5), "weight must be non-negative, got -1",
                     id="irrep-negative"),
        pytest.param(lambda: irrep_jordan(3, 4), "characteristic must be a prime, got 4",
                     id="irrep-composite"),
        pytest.param(lambda: irrep_char(-1, 5), "weight must be non-negative, got -1",
                     id="irrep-char-negative"),
        pytest.param(lambda: irrep_char(3, 4), "characteristic must be a prime, got 4",
                     id="irrep-char-composite"),
        pytest.param(lambda: tilting_jordan(-1, 5), "dominant weight must be >= 0, got -1",
                     id="tilting-negative"),
        pytest.param(lambda: tilting_jordan(3, 4), "characteristic must be a prime, got 4",
                     id="tilting-composite"),
        pytest.param(lambda: tilting_dim(-2, 5), "dominant weight must be >= 0, got -2",
                     id="tilting-dim-negative"),
        pytest.param(lambda: tilting_dim(3, 1), "characteristic must be a prime, got 1",
                     id="tilting-dim-composite"),
        pytest.param(lambda: tensor_jordan_types(JordanType.from_sizes([2], 2),
                                                 JordanType.from_sizes([2], 3)),
                     "mismatched characteristics 2 != 3", id="tensor-mismatched"),
        pytest.param(lambda: tensor_jordan_types(JordanType.from_sizes([4], 3),
                                                 JordanType.from_sizes([2], 3)),
                     "block sizes must be within [1, 3]: got 4", id="tensor-left-above-p"),
        pytest.param(lambda: tensor_jordan_types(JordanType.from_sizes([2], 3),
                                                 JordanType.from_sizes([5, 1], 3)),
                     "block sizes must be within [1, 3]: got 5", id="tensor-right-above-p"),
    ])
    def test_public_wrappers_keep_their_refusals(self, call, message):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


class TestWeylJordan:
    def test_examples(self):
        assert weyl_jordan(10, 5) == jt("5^2 1", 5)
        assert weyl_jordan(0, 7) == jt("1", 7)
        # frozen from the Pascal-matrix rank sequence over GF(5)
        assert weyl_jordan(7, 5) == jt("5 3", 5)

    def test_dimension(self):
        for p in (2, 3, 5):
            for m in range(0, 5 * p):
                assert weyl_jordan(m, p).dim == m + 1


class TestIrrepJordan:
    def test_steinberg_factor_examples(self):
        assert irrep_jordan(14, 5) == jt("5^3", 5)
        assert irrep_jordan(4, 5) == jt("5", 5)
        assert irrep_jordan(0, 3) == jt("1", 3)
        # frozen from the Kronecker-Pascal oracle over GF(5)
        assert irrep_jordan(8, 5) == jt("5 3", 5)

    def test_dimension_is_product_of_digit_dims(self):
        from unipjordan.core import base_p_digits
        for p in (2, 3, 5, 7):
            for lam in range(0, 4 * p * p):
                dim = 1
                for d in base_p_digits(lam, p).digits:
                    dim *= d + 1
                assert irrep_jordan(lam, p).dim == dim
                assert irrep_char(lam, p).dim == dim

    def test_blocks_never_exceed_p(self):
        for p in (2, 3, 5):
            for lam in range(0, 6 * p * p):
                assert irrep_jordan(lam, p).max_size <= p


class TestTilting:
    def test_dim_examples(self):
        assert tilting_dim(10, 5) == 20
        assert tilting_dim(6, 5) == 10
        for p in (2, 3, 5, 7):
            for c in range(0, p):
                assert tilting_dim(c, p) == c + 1
            for c in range(p, 2 * p - 1):
                assert tilting_dim(c, p) == 2 * p
        # the integer recursion against the character recursion
        for p in (2, 3, 5, 7, 11):
            for c in range(3000):
                assert tilting_dim(c, p) == tilting_char(c, p).dim, (c, p)

    def test_char_base_case_content(self):
        # uniserial middle layer: ch T(c) = ch V(c) + ch V(2p-2-c)
        ch = tilting_char(6, 5)
        assert ch.multiplicity(6) == 1 and ch.multiplicity(2) == 2
        assert ch.dim == 10

    def test_jordan_examples(self):
        assert tilting_jordan(10, 5) == jt("5^4", 5)
        assert tilting_jordan(6, 5) == jt("5^2", 5)
        assert tilting_jordan(2, 2) == jt("2^2", 2)
        assert tilting_jordan(3, 5) == jt("4", 5)

    def test_free_of_rank_dim_over_p(self):
        for p in (2, 3, 5, 7):
            for c in range(p - 1, 120):
                d = tilting_dim(c, p)
                assert d % p == 0 or c < p
                t = tilting_jordan(c, p)
                if c >= p - 1:
                    assert t.blocks == ((p, d // p),)


class TestEvalExpr:
    def test_worked_adjoint_decomposition(self):
        e = parse_expr("L(14)+T(10)+V(10)+V(10)^*+T(6)+L(4)+L(4)+L(0)")
        res = eval_expr(e, 5)
        assert res.dim == 78
        assert res.jordan == jt("5^15 1^3", 5)

    def test_trivial(self):
        res = eval_expr(parse_expr("L(0)"), 7)
        assert res.dim == 1 and res.jordan == jt("1", 7)
        assert res.character.as_dict() == {0: 1}

    def test_natural_square_is_dim4_tilting(self):
        a = eval_expr(parse_expr("L(1)*L(1)"), 2)
        b = eval_expr(parse_expr("T(2)"), 2)
        assert a.jordan == b.jordan == jt("2^2", 2)
        assert a.dim == b.dim == 4

    def test_dimension_coherence_randomized(self):
        rng = random.Random(3)
        for p in (2, 3, 5, 7):
            for _ in range(500):
                e = rand_expr(rng, depth=rng.randrange(0, 6), p=p)
                res = eval_expr(e, p)
                assert res.character.dim == res.dim == res.jordan.dim

    def test_twist_dual_invariance_of_jordan(self):
        rng = random.Random(4)
        for p in (2, 3, 5):
            for _ in range(80):
                e = rand_expr(rng, depth=2, p=p)
                base = eval_expr(e, p)
                for wrapped in (Dual(e), Twist(e, 1), Twist(Dual(e), 2)):
                    assert eval_expr(wrapped, p).jordan == base.jordan
                # character changes only under twist
                assert eval_expr(Dual(e), p).character == base.character

    def test_character_and_jordan_agree_on_size(self):
        e = Sum(Tensor(Atom("T", 7), Atom("L", 3)), Twist(Atom("V", 9), 2))
        res = eval_expr(e, 5)
        assert res.character.dim == res.jordan.dim

    def test_matches_per_pair_reference_fold(self):
        rng = random.Random(17)
        seen = {"T": 0, "Dual": 0, "Twist": 0, "Tensor": 0}

        def count(e):
            name = e.kind if isinstance(e, Atom) else type(e).__name__
            seen[name] = seen.get(name, 0) + 1
            for child in (getattr(e, f, None) for f in ("left", "right", "inner")):
                if child is not None:
                    count(child)

        for p in (2, 3, 5, 7, 11, 101):
            for _ in range(350):
                e = rand_expr(rng, depth=rng.randrange(0, 5 if p < 101 else 4), p=p)
                count(e)
                assert eval_expr(e, p).jordan == reference_jordan(e, p), (render_expr(e), p)
        assert min(seen.values()) >= 100, seen

    def test_one_jordan_type_per_call(self, monkeypatch):
        built = []
        post_init = JordanType.__post_init__

        def spy(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(JordanType, "__post_init__", spy)
        rng = random.Random(8)
        for p in (2, 3, 5, 7):
            for _ in range(100):
                e = Sum(rand_expr(rng, depth=3, p=p), Tensor(Atom("V", 2 * p + 1), Atom("L", p)))
                del built[:]
                res = eval_expr(e, p)
                assert built == [res.jordan], render_expr(e)

    def test_characters_built_only_when_read(self, monkeypatch, capsys):
        def forbidden(*args):
            raise AssertionError("a character was built without being read")

        def forbid_characters():
            for name in ("char_add", "char_tensor", "char_twist", "weyl_character",
                         "irrep_char", "tilting_char"):
                monkeypatch.setattr(sl2, name, forbidden)

        forbid_characters()
        rng = random.Random(6)
        table = bundled_table()
        results = []
        for p in (2, 3, 5, 7):
            for _ in range(60):
                e = rand_expr(rng, depth=rng.randrange(0, 5), p=p)
                results.append(eval_expr(e, p))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # dimensions rarely match E6
                    jordan, _ = identify_from_expr(table, "E6", p, e)
                assert jordan == results[-1].jordan
                assert main(["jordan", "-p", str(p), render_expr(e)]) == 0
                assert main(["tilting", "-p", str(p), str(rng.randrange(0, 10 ** 6))]) == 0
        capsys.readouterr()
        monkeypatch.undo()
        characters = [res.character for res in results]
        assert all(ch.dim == res.dim for ch, res in zip(characters, results))
        forbid_characters()  # a second read is served by the first build
        assert all(res.character is ch for ch, res in zip(characters, results))
