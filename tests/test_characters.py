"""The two convolution paths of the character layer.

A character is packed on a grid and combined by Kronecker substitution
when its grid is dense, and kept as pairs and combined by dict
convolution otherwise.  Both paths are forced here on every sum and
tensor of random trees, and on operands chosen to need two-word slots or
to be too sparse to pack.
"""

import random

import unipjordan.characters as C
import unipjordan.sl2 as sl2
from helpers import rand_expr
from unipjordan.characters import Character, char_add, char_tensor, char_twist, weyl_character
from unipjordan.sl2 import eval_expr


def checked(ch):
    """``ch``, after the public constructor's full check of its pairs."""
    assert Character(ch.items) == ch
    assert ch.dim == sum(m for _, m in ch.items)
    return ch


def refuse(a, b):
    raise AssertionError("the grid path ran on a sparse grid")


def test_paths_agree_on_random_trees(monkeypatch):
    """Every sum and tensor of 2000 random trees, with twists up to [3]:
    the chosen path, the dict path and the grid path give the same
    character, which passes the public check."""
    seen = {"grid": 0, "dict chosen": 0}
    grid_runs = []

    def both_paths(chosen, by_grid, by_dict):
        def op(a, b):
            before = len(grid_runs)
            out = checked(chosen(a, b))
            seen["dict chosen"] += len(grid_runs) == before
            assert checked(by_dict(a, b)) == out
            forced = by_grid(a, b)
            if forced is None:  # an operand or a coefficient needs two words
                assert max(m for _, m in out.items + a.items + b.items) >= 2 ** 64
            else:
                assert checked(forced) == out
                seen["grid"] += 1
            return out
        return op

    def spy(fn):
        def run(a, b):
            grid_runs.append(fn)
            return fn(a, b)
        return run

    monkeypatch.setattr(sl2, "char_add", both_paths(char_add, C._add_grid, C._add_dict))
    monkeypatch.setattr(sl2, "char_tensor", both_paths(char_tensor, C._tensor_grid,
                                                       C._tensor_dict))
    monkeypatch.setattr(C, "_add_grid", spy(C._add_grid))
    monkeypatch.setattr(C, "_tensor_grid", spy(C._tensor_grid))
    rng = random.Random(12)
    stored = {"packed": 0, "pairs": 0}
    for p in (2, 3, 5, 7, 11):
        for _ in range(400):
            e = rand_expr(rng, depth=rng.randrange(0, 4), p=p, max_weight=2 * p * p)
            res = eval_expr(e, p)
            ch = checked(res.character)
            assert ch.dim == res.dim
            stored["packed" if ch._slots is not None else "pairs"] += 1
    assert seen["grid"] > 1000 and seen["dict chosen"] > 30, seen
    assert stored["packed"] > 1000 and stored["pairs"] > 20, stored


def test_sparse_twisted_operands_take_the_dict_path(monkeypatch):
    for p in (5, 7, 11):
        deep = char_twist(weyl_character(3), 3, p)  # weights +-p^3, +-3p^3
        assert deep._slots is not None  # dense on its own lattice
        for small in (weyl_character(2), weyl_character(5)):
            want_prod, want_sum = C._tensor_dict(deep, small), C._add_dict(deep, small)
            assert C._tensor_grid(deep, small) == want_prod
            assert C._add_grid(deep, small) == want_sum
            with monkeypatch.context() as m:
                m.setattr(C, "_tensor_grid", refuse)
                m.setattr(C, "_add_grid", refuse)
                prod, total = char_tensor(deep, small), char_add(deep, small)
            assert checked(prod) == want_prod and checked(total) == want_sum
            assert prod._slots is None and total._slots is None
            # a sparse operand is packed on demand when the result is dense
            wide = weyl_character(7 * p ** 3)
            dense = checked(char_tensor(prod, wide))
            assert dense._slots is not None and dense == C._tensor_dict(prod, wide)


def test_two_word_slots():
    # multiplicities of 2^32 and more from the public constructor, so that
    # the bound max_a * max_b * min(len) reaches 2^64
    big = 1 << 33
    a = Character.from_dict({-2: big, 0: 1, 2: big})
    b = Character.from_dict({-2: 1, 0: 1 << 30, 2: 1})
    assert a._slots is not None and b._slots is not None
    fits = C._tensor_grid(a, b)  # two-word slots, every coefficient below 2^64
    assert fits is not None and fits.multiplicity(2) == (1 << 63) + 1
    assert checked(fits) == C._tensor_dict(a, b) == char_tensor(a, b)
    assert C._tensor_grid(a, a) is None  # 2^66 at weights +-4: one word is too narrow
    square = checked(char_tensor(a, a))
    assert square == C._tensor_dict(a, a) and square.multiplicity(4) == big * big
    near = Character.from_dict({-1: 1 << 63, 1: 1 << 63})
    assert C._add_grid(near, near) is None
    assert checked(char_add(near, near)).multiplicity(1) == 1 << 64
    huge = Character.from_dict({0: 1 << 70})  # too wide to pack at all
    assert huge._slots is None
    assert checked(char_tensor(huge, weyl_character(1))).as_dict() == {-1: 1 << 70, 1: 1 << 70}
    assert checked(char_add(huge, weyl_character(0))).as_dict() == {0: (1 << 70) + 1}
    rng = random.Random(8)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 11))
        ch = eval_expr(rand_expr(rng, depth=2, p=p, max_weight=2 * p * p), p).character
        w, m = rng.randrange(0, 4), rng.randrange(1 << 32, 1 << 63)
        heavy = Character.from_dict({-w: m, w: m})
        for grid_op, dict_op, op in ((C._tensor_grid, C._tensor_dict, char_tensor),
                                     (C._add_grid, C._add_dict, char_add)):
            want = checked(dict_op(ch, heavy))
            assert checked(op(ch, heavy)) == want
            forced = grid_op(ch, heavy)  # two-word slots
            if forced is None:
                assert max(want.as_dict().values()) >= 1 << 64
            else:
                assert forced == want


def test_multiplicity_on_both_storages():
    rng = random.Random(5)
    for p in (3, 7):
        for _ in range(40):
            ch = eval_expr(rand_expr(rng, depth=3, p=p, max_weight=60), p).character
            lo, hi = ch.items[0][0], ch.items[-1][0]
            mult = ch.as_dict()
            for w in range(lo - 3, hi + 4):
                assert ch.multiplicity(w) == mult.get(w, 0)
    assert Character(()).multiplicity(0) == 0 and weyl_character(0).multiplicity(0) == 1
