"""Expression parser and renderer."""

import random

import pytest

from helpers import rand_expr
from unipjordan.core import DomainError
from unipjordan.expr import (
    MAX_DEPTH,
    Atom,
    Dual,
    ParseError,
    Sum,
    Tensor,
    Twist,
    parse_expr,
    render_expr,
)
from unipjordan.sl2 import eval_expr


def test_parse_atoms_and_suffixes():
    assert parse_expr("V(10)^*") == Dual(Atom("V", 10))
    assert parse_expr("L(1)[2]*L(1)") == Tensor(Twist(Atom("L", 1), 2), Atom("L", 1))
    assert parse_expr("T(10)+T(6)") == Sum(Atom("T", 10), Atom("T", 6))
    assert parse_expr("  L( 14 ) ") == Atom("L", 14)
    assert parse_expr("V(10)^*[2]") == Twist(Dual(Atom("V", 10)), 2)
    assert parse_expr("V(10)[2]^*") == Dual(Twist(Atom("V", 10), 2))


def test_parse_associativity_and_parens():
    e = parse_expr("L(1)+L(2)+L(3)")
    assert e == Sum(Sum(Atom("L", 1), Atom("L", 2)), Atom("L", 3))
    e = parse_expr("L(1)*L(2)*L(3)")
    assert e == Tensor(Tensor(Atom("L", 1), Atom("L", 2)), Atom("L", 3))
    e = parse_expr("L(1)+(L(2)+L(3))")
    assert e == Sum(Atom("L", 1), Sum(Atom("L", 2), Atom("L", 3)))
    e = parse_expr("(L(1)+L(2))*L(3)")
    assert e == Tensor(Sum(Atom("L", 1), Atom("L", 2)), Atom("L", 3))
    # suffixes bind tighter than tensor, which binds tighter than sum
    e = parse_expr("L(1)+L(2)*L(3)^*")
    assert e == Sum(Atom("L", 1), Tensor(Atom("L", 2), Dual(Atom("L", 3))))


def test_parse_errors_carry_positions():
    for text, pos in [("", 0), ("L", 1), ("L(", 2), ("L(x)", 2), ("L(1)L(2)", 4),
                      ("Q(1)", 0), ("L(1)^", 4), ("L(1)[0]", 4), ("L(1)[]", 5),
                      ("(L(1)", 5), ("L(1)+", 5)]:
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.pos == pos, (text, err.value.pos)


def test_twist_zero_rejected():
    with pytest.raises(ParseError):
        parse_expr("L(1)[0]")
    with pytest.raises(DomainError, match="twist exponent"):
        Twist(Atom("V", 1), 0)
    with pytest.raises(DomainError, match="unknown atom kind"):
        Atom("X", 1)


def test_worked_decomposition_parses_to_eight_summands():
    e = parse_expr("L(14)+T(10)+V(10)+V(10)^*+T(6)+L(4)+L(4)+L(0)")
    leaves = []
    node = e
    while isinstance(node, Sum):
        leaves.append(node.right)
        node = node.left
    leaves.append(node)
    leaves.reverse()
    assert leaves == [
        Atom("L", 14), Atom("T", 10), Atom("V", 10), Dual(Atom("V", 10)),
        Atom("T", 6), Atom("L", 4), Atom("L", 4), Atom("L", 0),
    ]


def test_render_round_trip_examples():
    for text in ["V(10)^*", "L(1)[2]*L(1)", "T(10)+T(6)",
                 "(L(1)+L(2))*L(3)", "L(1)+(L(2)+L(3))",
                 "((V(3)^*+T(0))*L(2))[3]^*"]:
        e = parse_expr(text)
        assert parse_expr(render_expr(e)) == e


def test_render_round_trip_randomized():
    rng = random.Random(20)
    for _ in range(2000):
        e = rand_expr(rng, depth=rng.randrange(0, 5), p=5)
        assert parse_expr(render_expr(e)) == e


def test_depth_bound():
    at_bound = [
        "(" * MAX_DEPTH + "L(1)" + ")" * MAX_DEPTH,
        "+".join(["L(1)"] * (MAX_DEPTH + 1)),
        "*".join(["L(1)"] * (MAX_DEPTH + 1)),
        "L(1)" + "^*" * MAX_DEPTH,
        "L(1)" + "[1]" * MAX_DEPTH,
    ]
    for text in at_bound:
        e = parse_expr(text)
        assert parse_expr(render_expr(e)) == e
        res = eval_expr(e, 2)
        assert res.character.dim == res.dim
        with pytest.raises(ParseError):
            parse_expr(f"({text})")
    for text in ["+".join(["L(1)"] * (MAX_DEPTH + 2)), "L(1)" + "^*" * (MAX_DEPTH + 1),
                 "(" * 3000 + "L(1)" + ")" * 3000, "*".join(["L(1)"] * 1200)]:
        with pytest.raises(ParseError):
            parse_expr(text)
