"""Module expressions: AST, parser and renderer.

Grammar (whitespace insignificant)::

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := atom suffix*
    atom   := ('L'|'V'|'T') '(' nat ')' | '(' expr ')'
    suffix := '^*' | '[' nat ']'        (twist exponent >= 1)

Expressions nested deeper than MAX_DEPTH levels are refused.

'+' is direct sum, '*' is tensor product, '^*' is the dual and '[k]' the
k-th Frobenius twist; both suffixes bind tighter than '*'.  '+' and '*'
associate to the left.  Rendering is the inverse of parsing on ASTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import DomainError

ATOM_KINDS = ("L", "V", "T")

# Deepest expression the parser accepts, counting operator nodes and
# parentheses.  Evaluation, rendering and the oracle recurse on the tree,
# so the bound keeps them well inside the interpreter's recursion limit.
MAX_DEPTH = 100


@dataclass(frozen=True)
class Atom:
    kind: str  # 'L' irreducible, 'V' Weyl, 'T' tilting
    weight: int

    def __post_init__(self):
        if self.kind not in ATOM_KINDS:
            raise DomainError(f"unknown atom kind {self.kind!r}")
        if self.weight < 0:
            raise DomainError(f"weights must be non-negative, got {self.weight}")


@dataclass(frozen=True)
class Sum:
    left: "ModuleExpr"
    right: "ModuleExpr"


@dataclass(frozen=True)
class Tensor:
    left: "ModuleExpr"
    right: "ModuleExpr"


@dataclass(frozen=True)
class Dual:
    inner: "ModuleExpr"


@dataclass(frozen=True)
class Twist:
    inner: "ModuleExpr"
    l: int

    def __post_init__(self):
        if self.l < 1:
            raise DomainError(f"twist exponent must be >= 1, got {self.l}")


ModuleExpr = Union[Atom, Sum, Tensor, Dual, Twist]


class ParseError(DomainError):
    """Syntax error with the offending position in the source string."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.open = 0  # parentheses open at self.pos

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start:self.pos])

    def deeper(self, depth: int) -> int:
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", self.pos)
        return depth + 1

    # Each method returns (node, depth); depth counts operator nodes and
    # parentheses on the deepest path.

    def expr(self) -> tuple[ModuleExpr, int]:
        node, depth = self.term()
        while self.peek() == "+":
            self.pos += 1
            right, d = self.term()
            node, depth = Sum(node, right), self.deeper(max(depth, d))
        return node, depth

    def term(self) -> tuple[ModuleExpr, int]:
        node, depth = self.factor()
        while self.peek() == "*":
            self.pos += 1
            right, d = self.factor()
            node, depth = Tensor(node, right), self.deeper(max(depth, d))
        return node, depth

    def factor(self) -> tuple[ModuleExpr, int]:
        node, depth = self.atom()
        while True:
            ch = self.peek()
            if ch == "^":
                at = self.pos
                self.pos += 1
                if self.pos >= len(self.text) or self.text[self.pos] != "*":
                    raise ParseError("expected '*' after '^'", at)
                self.pos += 1
                node, depth = Dual(node), self.deeper(depth)
            elif ch == "[":
                at = self.pos
                self.pos += 1
                k = self.nat()
                self.expect("]")
                if k < 1:
                    raise ParseError("twist exponent must be >= 1", at)
                node, depth = Twist(node, k), self.deeper(depth)
            else:
                return node, depth

    def atom(self) -> tuple[ModuleExpr, int]:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            self.open = self.deeper(self.open)  # refuse before recursing
            node, depth = self.expr()
            self.expect(")")
            self.open -= 1
            return node, self.deeper(depth)
        if ch in ATOM_KINDS:
            self.pos += 1
            self.expect("(")
            w = self.nat()
            self.expect(")")
            return Atom(ch, w), 0
        raise ParseError("expected 'L', 'V', 'T' or '('", self.pos)


def parse_expr(text: str) -> ModuleExpr:
    """Parse a module expression, raising ParseError on bad syntax."""
    p = _Parser(text)
    node, _ = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError("trailing input", p.pos)
    return node


def render_expr(e: ModuleExpr) -> str:
    """Render an AST back to a string; parse(render(e)) == e."""
    if isinstance(e, Atom):
        return f"{e.kind}({e.weight})"
    if isinstance(e, Sum):  # keep right-nested sums explicit
        return f"{render_expr(e.left)}+{_operand(e.right, Sum)}"
    if isinstance(e, Tensor):
        return f"{_operand(e.left, Sum)}*{_operand(e.right, (Sum, Tensor))}"
    if isinstance(e, Dual):
        return f"{_operand(e.inner, (Sum, Tensor))}^*"
    if isinstance(e, Twist):
        return f"{_operand(e.inner, (Sum, Tensor))}[{e.l}]"
    raise TypeError(f"not a module expression: {e!r}")


def _operand(e: ModuleExpr, grouped) -> str:
    """Render e, in parentheses when it is an instance of ``grouped``."""
    text = render_expr(e)
    return f"({text})" if isinstance(e, grouped) else text
