"""Parser and evaluator for the element expression language.

Grammar (whitespace-insensitive)::

    expr     := ["+"|"-"] term (("+"|"-") term)*
    term     := factor (("sh"|"st") factor)*
    factor   := rational "*" factor | "(" expr ")" | literal
    literal  := "[" int ("," int)* "]" | "1"
    rational := int ("/" int)?

``sh`` is the shuffle product, ``st`` the stuffle product; both are left
associative and bind tighter than addition and subtraction, and scalar
multiplication binds tighter still.  The bare token ``1`` denotes the algebra
unit.  ``str`` of an :class:`~mzhopf.elements.Element` emits text this
grammar parses back to an equal element.

Syntax problems raise :class:`ExpressionSyntaxError` carrying the 1-based
position; composition parts below 1 and zero denominators are rejected, and
so is a factor inside more than :data:`MAX_NESTING` parentheses and scalar
prefixes, which keeps the recursive parser off the interpreter's recursion
limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .compositions import Composition, UNIT
from .elements import Element, linear_combination
from . import quasi_shuffle, shuffle_algebra

__all__ = [
    "ExpressionSyntaxError",
    "parse_expression",
    "evaluate",
    "evaluate_expression",
]


#: Most parentheses and scalar prefixes a factor may sit inside; each level
#: costs the parser three frames.
MAX_NESTING = 100


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; ``position`` is the 1-based offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class CompositionLiteral:
    composition: Composition


@dataclass(frozen=True)
class UnitLiteral:
    pass


@dataclass(frozen=True)
class ScalarMultiple:
    scalar: Fraction
    operand: object


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


@dataclass(frozen=True)
class Difference:
    left: object
    right: object


@dataclass(frozen=True)
class ShuffleProduct:
    left: object
    right: object


@dataclass(frozen=True)
class StuffleProduct:
    left: object
    right: object


@dataclass(frozen=True)
class Group:
    inner: object


# -- tokenizer --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<word>[A-Za-z]+)|(?P<sym>[\[\],()+\-*/]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "word", one of the symbol characters, or "end"
    text: str
    position: int  # 1-based


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:  # only trailing whitespace left
                break
            at = len(src) - len(stripped) + 1
            raise ExpressionSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup == "int":
            tokens.append(_Token("int", m.group("int"), m.start("int") + 1))
        elif m.lastgroup == "word":
            word = m.group("word")
            if word not in ("sh", "st"):
                raise ExpressionSyntaxError(
                    f"unknown word {word!r} (expected 'sh' or 'st')",
                    m.start("word") + 1,
                )
            tokens.append(_Token(word, word, m.start("word") + 1))
        else:
            sym = m.group("sym")
            tokens.append(_Token(sym, sym, m.start("sym") + 1))
        pos = m.end()
    tokens.append(_Token("end", "", len(src) + 1))
    return tokens


# -- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ExpressionSyntaxError(f"expected {kind!r}, found {shown!r}", tok.position)
        return self.advance()

    def parse(self):
        node = self.expr(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing {tok.text!r}", tok.position)
        return node

    def expr(self, depth: int):
        negate = False
        if self.peek().kind in ("+", "-"):
            negate = self.advance().kind == "-"
        node = self.term(depth)
        if negate:
            node = ScalarMultiple(Fraction(-1), node)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term(depth)
            node = Sum(node, rhs) if op == "+" else Difference(node, rhs)
        return node

    def term(self, depth: int):
        node = self.factor(depth)
        while self.peek().kind in ("sh", "st"):
            op = self.advance().kind
            rhs = self.factor(depth)
            node = ShuffleProduct(node, rhs) if op == "sh" else StuffleProduct(node, rhs)
        return node

    def factor(self, depth: int):
        tok = self.peek()
        if depth > MAX_NESTING:
            raise ExpressionSyntaxError(
                f"expression nests more than {MAX_NESTING} levels deep", tok.position
            )
        if tok.kind == "(":
            self.advance()
            inner = self.expr(depth + 1)
            self.expect(")")
            return Group(inner)
        if tok.kind == "[":
            return self.composition_literal()
        if tok.kind == "int":
            # rational "*" factor, or the bare unit literal "1"
            after = self.tokens[self.index + 1]
            if after.kind in ("*", "/"):
                scalar = self.rational()
                self.expect("*")
                return ScalarMultiple(scalar, self.factor(depth + 1))
            if tok.text == "1":
                self.advance()
                return UnitLiteral()
            raise ExpressionSyntaxError(
                f"bare integer {tok.text!r} is not an element (use '1', a literal, "
                "or 'n*...')",
                tok.position,
            )
        shown = tok.text or "end of input"
        raise ExpressionSyntaxError(f"expected an element, found {shown!r}", tok.position)

    def rational(self) -> Fraction:
        num_tok = self.expect("int")
        value = Fraction(int(num_tok.text))
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("int")
            den = int(den_tok.text)
            if den == 0:
                raise ExpressionSyntaxError("zero denominator", den_tok.position)
            value /= den
        return value

    def composition_literal(self):
        open_tok = self.expect("[")
        parts = []
        while True:
            tok = self.expect("int")
            part = int(tok.text)
            if part < 1:
                raise ExpressionSyntaxError(
                    f"composition parts must be >= 1, got {part}", tok.position
                )
            parts.append(part)
            if self.peek().kind == ",":
                self.advance()
                continue
            break
        self.expect("]")
        del open_tok
        return CompositionLiteral(Composition(parts))


def parse_expression(src: str):
    """Parse expression text into an AST."""
    return _Parser(src).parse()


def evaluate(node) -> Element:
    """Evaluate an AST to an Element.

    Sum and product chains are folded along their left spine in a loop, so
    a chain of any length evaluates without deep recursion; a sum chain
    collects its terms in one accumulator instead of copying a partial sum
    per term.
    """
    if isinstance(node, CompositionLiteral):
        return Element.basis(node.composition)
    if isinstance(node, UnitLiteral):
        return Element.basis(UNIT)
    if isinstance(node, ScalarMultiple):
        return evaluate(node.operand).scaled(node.scalar)
    if isinstance(node, (Sum, Difference)):
        return _fold_sum(node)
    if isinstance(node, (ShuffleProduct, StuffleProduct)):
        return _fold_product(node)
    if isinstance(node, Group):
        return evaluate(node.inner)
    raise TypeError(f"not an expression node: {node!r}")


def _left_spine(node, kinds) -> tuple[object, list]:
    """The first operand of a left-nested chain of ``kinds``, and the
    chain's links from the innermost out."""
    links = []
    while isinstance(node, kinds):
        links.append(node)
        node = node.left
    links.reverse()
    return node, links


def _fold_sum(node) -> Element:
    # the linked terms go into one accumulator, which joins the first
    # operand in a single Element addition at the end
    first, links = _left_spine(node, (Sum, Difference))
    head = evaluate(first)
    acc = linear_combination(
        (evaluate(link.right)._terms.items(), -1 if isinstance(link, Difference) else 1)
        for link in links
    )
    return head + Element._raw(acc)


def _fold_product(node) -> Element:
    first, links = _left_spine(node, (ShuffleProduct, StuffleProduct))
    acc = evaluate(first)
    for link in links:
        product = (
            shuffle_algebra.shuffle if isinstance(link, ShuffleProduct)
            else quasi_shuffle.stuffle
        )
        acc = product(acc, evaluate(link.right))
    return acc


def evaluate_expression(src: str) -> Element:
    """Parse and evaluate in one step."""
    return evaluate(parse_expression(src))
