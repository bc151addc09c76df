"""Ext groups, extension classification, indecomposable enumeration."""

import random

import pytest

from helpers import ext1_lattice
from unipjordan.core import DomainError, JordanType, parse_partition
from unipjordan.expr import Atom, Dual, Twist
from unipjordan.extclassify import (
    classify_dim4_p2,
    enumerate_indecomposables,
    ext1_neighbors,
    ext1_nonzero,
    nonsplit_ext_classify,
    semisimplicity_verdict,
)
from unipjordan.oracle import expr_dim, oracle_eval
from unipjordan.sl2 import eval_expr, weyl_jordan


class TestExt1:
    def test_tilting_layer_pairs(self):
        for p in (2, 3, 5, 7):
            for c in range(p, 2 * p - 1):
                assert ext1_nonzero(c, 2 * p - 2 - c, p)
        assert ext1_nonzero(6, 2, 5)

    def test_self_extensions_vanish(self):
        for p in (2, 3, 5, 7):
            for lam in range(0, 500):
                assert not ext1_nonzero(lam, lam, p)

    def test_char_two_example(self):
        assert ext1_nonzero(0, 2, 2)

    def test_symmetry_small_grid(self):
        for p in (2, 3, 5):
            for lam in range(0, 80):
                for mu in range(0, 80):
                    assert ext1_nonzero(lam, mu, p) == ext1_nonzero(mu, lam, p)

    def test_neighbors_match_predicate(self):
        for p in (2, 3, 5, 7):
            for lam in range(0, 150):
                nb = ext1_neighbors(lam, p, 300)
                for mu in range(0, 301):
                    assert ext1_nonzero(lam, mu, p) == (mu in nb), (p, lam, mu)

    def test_negative_weights_rejected(self):
        with pytest.raises(DomainError):
            ext1_nonzero(-1, 0, 5)
        with pytest.raises(DomainError, match="weight must be non-negative, got -1"):
            ext1_neighbors(-1, 5, 10)

    def test_digit_rule_matches_the_weyl_module_lattice(self):
        # the independent reference: Ext^1 from the submodule lattice of V(lam).
        # At (1, 11), p = 2, the radical position j0 = 5 is not the lowest
        # position that reaches it, so Ext^1 vanishes
        assert not ext1_lattice(1, 11, 2) and not ext1_nonzero(1, 11, 2)
        assert ext1_lattice(6, 2, 5) and ext1_lattice(2, 6, 5)
        for p in (2, 3, 5, 7):
            for lam in range(80):
                for mu in range(80):
                    assert ext1_lattice(lam, mu, p) == ext1_nonzero(lam, mu, p), (p, lam, mu)


class TestNonsplitClassify:
    def test_weyl_and_dual(self):
        v = nonsplit_ext_classify(6, 2, 5)
        assert v.kind == "WeylTwist" and (v.c, v.l) == (6, 0)
        assert v.jordan == weyl_jordan(6, 5) == parse_partition("5 2", 5)
        v = nonsplit_ext_classify(2, 6, 5)
        assert v.kind == "DualWeylTwist" and (v.c, v.l) == (6, 0)
        assert v.jordan == parse_partition("5 2", 5)

    def test_twisted_pair_resolved_by_digit_rule(self):
        # lam = 10 = 2*5 is not c*5^l with p <= c <= 2p-2, but
        # (mu, lam) = (6*5, (2p-2-6)*5): the dual Weyl twist at l = 1
        v = nonsplit_ext_classify(10, 30, 5)
        assert v.kind == "DualWeylTwist" and (v.c, v.l) == (6, 1)
        v = nonsplit_ext_classify(30, 10, 5)
        assert v.kind == "WeylTwist" and (v.c, v.l) == (6, 1)

    def test_every_twisted_weyl_pair(self):
        # every c in [p, 2p-2] and twist l, c = p included: there lam = p^(l+1)
        for p in (2, 3, 5, 7):
            for l in range(4):
                for c in range(p, 2 * p - 1):
                    lam, mu = c * p ** l, (2 * p - 2 - c) * p ** l
                    v = nonsplit_ext_classify(lam, mu, p)
                    assert (v.kind, v.c, v.l) == ("WeylTwist", c, l), (lam, mu, p)
                    v = nonsplit_ext_classify(mu, lam, p)
                    assert (v.kind, v.c, v.l) == ("DualWeylTwist", c, l), (mu, lam, p)

    def test_no_extension(self):
        assert nonsplit_ext_classify(3, 3, 5).kind == "NoExtension"
        assert nonsplit_ext_classify(0, 4, 5).kind == "NoExtension"

    def test_many_large_blocks(self):
        # ext is nonzero but the pair is not a twisted Weyl pair: any
        # nonsplit extension then has >= 2 blocks of size p
        p = 5
        found = 0
        for lam in range(0, 400):
            for mu in ext1_neighbors(lam, p, 400):
                v = nonsplit_ext_classify(lam, mu, p)
                assert v.kind in ("WeylTwist", "DualWeylTwist", "ManyLargeBlocks")
                if v.kind == "ManyLargeBlocks":
                    found += 1
        assert found > 0

    def test_consistency_with_ext_and_weyl(self):
        for p in (2, 3, 5, 7):
            for lam in range(0, 300):
                for mu in ext1_neighbors(lam, p, 300):
                    v = nonsplit_ext_classify(lam, mu, p)
                    if v.kind in ("WeylTwist", "DualWeylTwist"):
                        assert ext1_nonzero(lam, mu, p)
                        assert p <= v.c <= 2 * p - 2
                        assert v.jordan == weyl_jordan(v.c, p)


class TestEnumerate:
    def test_single_steinberg_block(self):
        fams = enumerate_indecomposables(parse_partition("5", 5), 5)
        assert len(fams) == 1
        assert fams[0].kind == "irreducible" and fams[0].digits == (4,)

    def test_weyl_pair_no_irreducible(self):
        fams = enumerate_indecomposables(parse_partition("5 2", 5), 5)
        assert sorted(f.kind for f in fams) == ["dual-weyl", "weyl"]
        assert all(f.c == 6 for f in fams)

    def test_trivial_type(self):
        fams = enumerate_indecomposables(parse_partition("1", 3), 3)
        assert len(fams) == 1 and fams[0].digits == ()
        assert fams[0].template == "L(0)"

    def test_rejects_two_full_blocks(self):
        with pytest.raises(DomainError):
            enumerate_indecomposables(parse_partition("2^2", 2), 2)
        with pytest.raises(DomainError, match="characteristic 3, not 5"):
            enumerate_indecomposables(parse_partition("2", 3), 5)

    def test_completeness_for_atoms_at_desk_scale(self):
        # every twisted/dualized L- or V-atom of dimension <= 64 whose
        # oracle type has at most one size-p block appears in the
        # enumeration of that type
        rng = random.Random(21)
        for p in (2, 3, 5):
            for kind in "LV":
                for w in range(0, 64):
                    base = Atom(kind, w)
                    for e in (base, Dual(base), Twist(base, rng.randrange(1, 3)),
                              Dual(Twist(base, 1))):
                        if expr_dim(e, p) > 64:
                            continue
                        t = oracle_eval(e, p)
                        if t.size_p_multiplicity > 1:
                            continue
                        fams = enumerate_indecomposables(t, p)
                        if kind == "L":
                            from unipjordan.core import base_p_digits
                            digits = tuple(sorted(
                                (d for d in base_p_digits(w, p).digits if d), reverse=True))
                            assert any(f.kind == "irreducible" and f.digits == digits
                                       for f in fams), (p, e, t)
                        elif w <= p - 1:
                            # restricted Weyl modules are irreducible
                            assert any(f.kind == "irreducible" and f.digits ==
                                       ((w,) if w else ())
                                       for f in fams), (p, e, t)
                        else:
                            kinds = {f.kind for f in fams}
                            assert {"weyl", "dual-weyl"} <= kinds, (p, e, t)

    def test_instantiations_reproduce_the_type(self):
        for p, text in ((5, "5 2"), (3, "3 2"), (2, "2 1")):
            t = parse_partition(text, p)
            for fam in enumerate_indecomposables(t, p):
                if fam.kind == "irreducible":
                    exps = tuple(range(len(fam.digits)))
                else:
                    exps = (1,)
                got = eval_expr(fam.instantiate(exps), p).jordan
                assert got == t, (fam, got)

    def test_twist_exponents_do_not_change_type(self):
        t = parse_partition("5 2", 5)
        fam = [f for f in enumerate_indecomposables(t, 5) if f.kind == "weyl"][0]
        types = {eval_expr(fam.instantiate((l,)), 5).jordan for l in range(0, 4)}
        assert types == {t}

    def test_irreducible_twists_must_increase(self):
        fams = enumerate_indecomposables(parse_partition("2^2 1", 3), 3)
        irr = [f for f in fams if f.kind == "irreducible"]
        for f in irr:
            if len(f.digits) >= 2:
                with pytest.raises(DomainError):
                    f.instantiate(tuple([0] * len(f.digits)))


class TestDim4CharTwo:
    def test_three_families(self):
        fams = classify_dim4_p2()
        assert [f.kind for f in fams] == ["irreducible", "direct-sum", "tilting-twist"]
        target = parse_partition("2^2", 2)
        assert eval_expr(fams[0].instantiate((0, 1)), 2).jordan == target
        assert eval_expr(fams[1].instantiate((0, 0)), 2).jordan == target
        assert eval_expr(fams[2].instantiate((0,)), 2).jordan == target

    def test_tilting_family_at_zero_is_natural_square(self):
        fams = classify_dim4_p2()
        t2 = eval_expr(fams[2].instantiate((0,)), 2)
        from unipjordan.expr import Tensor
        square = eval_expr(Tensor(Atom("L", 1), Atom("L", 1)), 2)
        assert t2.character == square.character
        assert t2.jordan == square.jordan

    def test_oracle_confirms_family_one(self):
        # the irreducible family member at twists (0, 1)
        e = Twist(Atom("L", 1), 1)
        from unipjordan.expr import Tensor
        got = oracle_eval(Tensor(Atom("L", 1), e), 2)
        assert got == parse_partition("2^2", 2)


class TestSemisimplicity:
    def test_small_blocks_forced(self):
        v = semisimplicity_verdict(parse_partition("3 1", 5), False, 5)
        assert v.verdict == "ForcedSemisimple" and bool(v)

    def test_self_dual_with_one_full_block(self):
        v = semisimplicity_verdict(parse_partition("5 2", 5), True, 5)
        assert v.verdict == "ForcedSemisimple"

    def test_inconclusive_without_self_duality(self):
        # the Weyl module at c = 6 is the non-semisimple witness
        v = semisimplicity_verdict(parse_partition("5 2", 5), False, 5)
        assert v.verdict == "Inconclusive" and not bool(v)

    def test_randomized_rule_grid(self):
        rng = random.Random(22)
        for _ in range(400):
            p = rng.choice((2, 3, 5, 7))
            sizes = [rng.randrange(1, p + 1) for _ in range(rng.randrange(1, 7))]
            t = JordanType.from_sizes(sizes, p)
            self_dual = rng.random() < 0.5
            v = semisimplicity_verdict(t, self_dual, p)
            if t.max_size < p:
                assert v.verdict == "ForcedSemisimple"
            elif self_dual and t.size_p_multiplicity <= 1:
                assert v.verdict == "ForcedSemisimple"
            else:
                assert v.verdict == "Inconclusive"

    def test_oversized_blocks_rejected(self):
        with pytest.raises(DomainError):
            semisimplicity_verdict(parse_partition("9 3", 3), True, 3)
        with pytest.raises(DomainError, match="characteristic 3, not 5"):
            semisimplicity_verdict(parse_partition("2", 3), True, 5)


def test_neighbors_reach_below_a_small_bound_from_large_weights():
    # a weight concentrated at high digit positions can rewrite down to 0;
    # the constructive enumeration must not cut its search window at the bound
    for p in (3, 5, 7):
        lam = (p - 2) * p ** 6 + p ** 7
        nb = ext1_neighbors(lam, p, 10)
        assert 0 in nb
        assert ext1_nonzero(lam, 0, p) and ext1_nonzero(0, lam, p)
