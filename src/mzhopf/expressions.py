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

The parser returns flat chains: a sum of two or more terms is one
:class:`Sum`, a product of two or more factors one :class:`Product`, so
chains of any length parse and evaluate in loops.  Parentheses leave no node
of their own.  Only ``(`` and a scalar prefix ``q*`` nest, and a factor inside
more than :data:`MAX_NESTING` of them is rejected, which keeps the recursive
parser and evaluator off the interpreter's recursion limit.

Syntax problems raise :class:`ExpressionSyntaxError` carrying the 1-based
position; composition parts below 1 and zero denominators are rejected too.
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
class Literal:
    composition: Composition  # UNIT for the bare token "1"


@dataclass(frozen=True)
class ScalarMultiple:
    scalar: Fraction
    operand: object


@dataclass(frozen=True)
class Sum:
    # (sign, node) pairs with sign 1 or -1; the first sign is 1, because a
    # leading "-" parses as a ScalarMultiple by -1
    terms: tuple


@dataclass(frozen=True)
class Product:
    first: object
    links: tuple  # ("sh" | "st", node) pairs, applied left to right


# -- tokenizer --------------------------------------------------------------

# Each match starts where the previous one ended: "\S" takes any bad
# character and "\Z" the end of input, so finditer never rescans trailing
# whitespace from later positions and the pass stays linear.  The groups are
# int, word, symbol and bad character.
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([\[\],()+\-*/])|(\S)|\Z)")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """``(kind, text, 1-based position)`` triples, closed by an ``"end"``
    token; the kind is ``"int"``, or the text of a word or symbol."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        group = m.lastindex
        if group is None:
            break
        text = m.group(group)
        position = m.start(group) + 1
        if group == 1:
            tokens.append(("int", text, position))
        elif group == 3 or text in ("sh", "st"):
            tokens.append((text, text, position))
        elif group == 2:
            raise ExpressionSyntaxError(
                f"unknown word {text!r} (expected 'sh' or 'st')", position
            )
        else:
            raise ExpressionSyntaxError(f"unexpected character {text!r}", position)
    tokens.append(("end", "", len(src) + 1))
    return tokens


# -- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.index = 0

    def kind(self) -> str:
        return self.tokens[self.index][0]

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] != kind:
            shown = tok[1] or "end of input"
            raise ExpressionSyntaxError(f"expected {kind!r}, found {shown!r}", tok[2])
        self.index += 1
        return tok

    def parse(self):
        node = self.expr(0)
        kind, text, position = self.tokens[self.index]
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing {text!r}", position)
        return node

    def expr(self, depth: int):
        negate = self.kind() == "-"
        if negate or self.kind() == "+":
            self.index += 1
        node = self.term(depth)
        if negate:
            node = ScalarMultiple(Fraction(-1), node)
        terms = [(1, node)]
        while (kind := self.kind()) in ("+", "-"):
            self.index += 1
            terms.append((1 if kind == "+" else -1, self.term(depth)))
        return node if len(terms) == 1 else Sum(tuple(terms))

    def term(self, depth: int):
        first = self.factor(depth)
        links = []
        while (kind := self.kind()) in ("sh", "st"):
            self.index += 1
            links.append((kind, self.factor(depth)))
        return Product(first, tuple(links)) if links else first

    def factor(self, depth: int):
        kind, text, position = self.tokens[self.index]
        if depth > MAX_NESTING:
            raise ExpressionSyntaxError(
                f"expression nests more than {MAX_NESTING} levels deep", position
            )
        if kind == "(":
            self.index += 1
            inner = self.expr(depth + 1)
            self.expect(")")
            return inner
        if kind == "[":
            return self.composition_literal()
        if kind == "int":
            # rational "*" factor, or the bare unit literal "1"
            if self.tokens[self.index + 1][0] in ("*", "/"):
                scalar = self.rational()
                self.expect("*")
                return ScalarMultiple(scalar, self.factor(depth + 1))
            if text == "1":
                self.index += 1
                return Literal(UNIT)
            raise ExpressionSyntaxError(
                f"bare integer {text!r} is not an element (use '1', a literal, "
                "or 'n*...')",
                position,
            )
        shown = text or "end of input"
        raise ExpressionSyntaxError(f"expected an element, found {shown!r}", position)

    def rational(self) -> Fraction:
        value = Fraction(int(self.expect("int")[1]))
        if self.kind() == "/":
            self.index += 1
            _, text, position = self.expect("int")
            den = int(text)
            if den == 0:
                raise ExpressionSyntaxError("zero denominator", position)
            value /= den
        return value

    def composition_literal(self) -> Literal:
        self.index += 1  # the "["
        parts = []
        while True:
            _, text, position = self.expect("int")
            part = int(text)
            if part < 1:
                raise ExpressionSyntaxError(
                    f"composition parts must be >= 1, got {part}", position
                )
            parts.append(part)
            if self.kind() != ",":
                break
            self.index += 1
        self.expect("]")
        # every part was checked above, so the validating constructor is skipped
        return Literal(tuple.__new__(Composition, parts))


def parse_expression(src: str):
    """Parse expression text into a tree of flat sum and product chains."""
    return _Parser(src).parse()


def evaluate(node) -> Element:
    """Evaluate a parsed expression to an Element.

    Chains are evaluated in a loop.  A sum's terms after the first go into
    one accumulator, which joins the first term in a single Element addition
    at the end, instead of copying a partial sum per term.  Products are
    looked up through their modules on each call.
    """
    if isinstance(node, Literal):
        return Element.basis(node.composition)
    if isinstance(node, ScalarMultiple):
        return evaluate(node.operand).scaled(node.scalar)
    if isinstance(node, Sum):
        head = evaluate(node.terms[0][1])
        acc = linear_combination(
            (evaluate(term)._terms.items(), sign) for sign, term in node.terms[1:]
        )
        return head + Element._raw(acc)
    if isinstance(node, Product):
        acc = evaluate(node.first)
        for op, factor in node.links:
            product = shuffle_algebra.shuffle if op == "sh" else quasi_shuffle.stuffle
            acc = product(acc, evaluate(factor))
        return acc
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_expression(src: str) -> Element:
    """Parse and evaluate in one step."""
    return evaluate(parse_expression(src))
