"""The two convolution paths of the character layer.

Grid arithmetic packs a character into one 64-bit word per slot and
combines characters by Kronecker substitution when the result grid is
dense and a bound on its coefficients stays below 2^64; the dict
convolution runs otherwise and keeps pairs.  Both paths are forced here
on every sum and tensor of random trees, and on operands chosen to sit
on either side of the one-word bound or to be too sparse to pack.
"""

import math
import random
from array import array

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


def lattice_len(ch):
    """Slots of ch's own lattice lo, lo + step, ..., -lo."""
    ws = [w for w, _ in ch.items]
    step = math.gcd(*[w - ws[0] for w in ws])
    return (ws[-1] - ws[0]) // step + 1 if step else 1


def top(ch):
    return max(m for _, m in ch.items)


def add_bound(a, b):
    """The grid sum's bound on its coefficients: max_a + max_b."""
    return top(a) + top(b)


def tensor_bound(a, b):
    """The grid product's bound on its coefficients: a slot of the product
    sums at most min(len_a, len_b) products max_a * max_b."""
    return top(a) * top(b) * min(lattice_len(a), lattice_len(b))


GRID_OPS = ((C._add_grid, C._add_dict, char_add, add_bound),
            (C._tensor_grid, C._tensor_dict, char_tensor, tensor_bound))


def test_paths_agree_on_random_trees(monkeypatch):
    """Every sum and tensor of 2000 random trees, with twists up to [3]:
    the chosen path, the dict path and the grid path give the same
    character, which passes the public check."""
    seen = {"grid": 0, "dict chosen": 0}
    grid_runs = []

    def both_paths(chosen, by_grid, by_dict, bound):
        def op(a, b):
            before = len(grid_runs)
            out = checked(chosen(a, b))
            seen["dict chosen"] += len(grid_runs) == before
            assert checked(by_dict(a, b)) == out
            forced = by_grid(a, b)
            # the grid path refuses exactly when its bound reaches 2^64
            assert (forced is None) == (bound(a, b) >= 2 ** 64)
            if forced is not None:
                assert checked(forced) == out
                seen["grid"] += 1
            return out
        return op

    def spy(fn):
        def run(a, b):
            grid_runs.append(fn)
            return fn(a, b)
        return run

    monkeypatch.setattr(sl2, "char_add", both_paths(char_add, C._add_grid, C._add_dict,
                                                    add_bound))
    monkeypatch.setattr(sl2, "char_tensor", both_paths(char_tensor, C._tensor_grid,
                                                       C._tensor_dict, tensor_bound))
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


def test_grid_path_refuses_exactly_at_two_to_the_64():
    """_add_grid and _tensor_grid return None exactly when their bound
    reaches 2^64, and char_add and char_tensor equal the dict paths on
    either side of it."""
    def sym(m, *weights):
        return Character.from_dict({s * w: m for w in weights for s in (1, -1)})

    w32 = 1 << 32
    pairs = [
        (sym(1 << 63, 0), sym((1 << 63) - 1, 0)),  # sum bound 2^64 - 1
        (sym(1 << 63, 1), sym(1 << 63, 1)),  # sum bound 2^64
        (sym(w32, 0), sym(w32 - 1, 0)),  # product bound 2^64 - 2^32
        (sym(w32, 3), sym(w32, 3)),  # product bound 2^64
        # max_a * max_b < 2^64, but 3 (2^32 - 1)^2 at weight 0 needs two words
        (sym(w32 - 1, 0, 2), sym(w32 - 1, 0, 2)),
        # bound 3 * 2^63, though every coefficient is below 2^64
        (Character.from_dict({-2: 1 << 33, 0: 1, 2: 1 << 33}),
         Character.from_dict({-2: 1, 0: 1 << 30, 2: 1})),
    ]
    rng = random.Random(8)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 11))
        ch = eval_expr(rand_expr(rng, depth=2, p=p, max_weight=2 * p * p), p).character
        pairs.append((ch, sym(rng.randrange(1 << 28, 1 << 63), rng.randrange(0, 4))))
    seen = set()
    for a, b in pairs:
        for grid_op, dict_op, op, bound in GRID_OPS:
            want = checked(dict_op(a, b))
            assert checked(op(a, b)) == want
            forced = grid_op(a, b)
            refused = bound(a, b) >= 1 << 64
            assert (forced is None) == refused, (a, b, grid_op.__name__)
            if forced is not None:
                assert checked(forced) == want and forced._slots is not None
            seen.add((grid_op.__name__, refused))
    assert seen == {(f.__name__, r) for f, *_ in GRID_OPS for r in (False, True)}


def test_tensor_powers_across_two_to_the_64():
    """V(1)^(x)k to k = 72 (C(68, 34) > 2^64) and V(2)^(x)64 by squaring:
    packed while the one-word bound holds, pairs past it, and equal to the
    dict convolution throughout."""
    v = weyl_character(1)
    power, want, packed = v, v, []
    for _ in range(71):
        power, want = char_tensor(power, v), C._tensor_dict(want, v)
        assert checked(power) == want
        packed.append(power._slots is not None)
    assert top(power) >= 1 << 64 and packed[0] and not packed[-1]
    power = want = weyl_character(2)
    for _ in range(6):
        power, want = char_tensor(power, power), C._tensor_dict(want, want)
        assert checked(power) == want
    assert top(power) >= 1 << 64 and power._slots is None


def test_huge_multiplicity_stays_pairs():
    huge = Character.from_dict({0: 1 << 70})
    assert huge._slots is None and C._pack(huge) is None
    assert C._tensor_grid(huge, weyl_character(1)) is None
    assert C._add_grid(huge, weyl_character(0)) is None
    assert checked(char_tensor(huge, weyl_character(1))).as_dict() == {-1: 1 << 70, 1: 1 << 70}
    assert checked(char_add(huge, weyl_character(0))).as_dict() == {0: (1 << 70) + 1}


def test_pairs_packed_on_demand():
    """The public constructor keeps pairs, even on a dense grid; grid
    arithmetic packs such an operand when it needs it, and keeps its
    own result packed."""
    a = Character.from_dict({-2: 1, 0: 3, 2: 1})
    assert a._slots is None
    assert C._pack(a) == array("Q", [1, 3, 1]) and a._slots is None
    assert char_twist(a, 1, 3)._slots is None
    square = checked(char_tensor(a, a))
    assert square._slots is not None and square == C._tensor_dict(a, a)
    total = checked(char_add(a, weyl_character(2)))
    assert total._slots is not None and total.as_dict() == {-2: 2, 0: 4, 2: 2}


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
