"""Characters of the shuffle algebra and the morphisms they induce.

A character is a rational-valued multiplicative functional on the shuffle
algebra, stored as a finite table with an explicit weight horizon.  Every
character ``chi`` induces an algebra-and-coalgebra morphism ``psi`` into the
quasi-shuffle algebra,

    psi(e) = sum over compositions alpha of weight n of
                 (chi tensored over the factors of the rank-depth(alpha)
                  iterated coproduct, projected to weight profile alpha)
             times the basis element [alpha],

for homogeneous ``e`` of weight ``n``.  In the ascending composition basis
its weight-``n`` matrix is upper triangular with diagonal entry
``chi([s1]) * ... * chi([sk])`` at column ``[s1,...,sk]``, so the morphism
is invertible exactly when ``chi([s]) != 0`` for every relevant ``s``;
``preimage`` realizes the inverse by back-substitution.

With the factorial character ``chi([s]) = 1/weight!`` the composite
``canonical_character . psi`` recovers ``chi`` itself, and ``psi``
identifies the two Hopf structures exactly.

``induced_morphism_fast`` computes ``psi`` by a recursion over one *reduced*
coproduct (no unit factors ever appear) whose basis columns are memoized on
the character and also back ``morphism_matrix`` and ``preimage``.  The
defining formula above is kept only as an oracle in :mod:`mzhopf.verify`,
which checks this route against it and inverts ``preimage`` against it.

The columns are computed in plain integers.  Each memoized column is a
triple ``(den, codes, nums)``: one positive denominator, the ascending word
codes (:mod:`compositions`) of its rows, packed as the product kernel packs
its entries, and their integer numerators, with ``gcd(den, *nums) == 1``.
Codes are decoded, and exact rationals (``int`` or ``Fraction``) made, only
in the results handed to callers.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from typing import Callable, Iterator, Mapping, Sequence, TextIO

from .compositions import UNIT, Composition, _code, _decode, _packed, enumerate_basis
from .elements import (
    Element,
    Rational,
    as_element,
    coerce_coeff,
    component_weights,
    scaled_sum,
)
from . import shuffle_algebra

#: A psi column: one denominator >= 1, the strictly ascending codes of its
#: rows and their integer numerators, with gcd(den, *numerators) == 1.
Column = tuple[int, Sequence[int], list[int]]

__all__ = [
    "CoverageError",
    "SingularCharacterError",
    "InvalidCharacterError",
    "Character",
    "factorial_character",
    "validate_character",
    "CharacterCheck",
    "induced_morphism_fast",
    "GradedMatrix",
    "morphism_matrix",
    "preimage",
    "read_character_file",
]


class CoverageError(LookupError):
    """A character value was requested beyond the table's weight horizon."""


class SingularCharacterError(ValueError):
    """The induced morphism is not invertible: chi([s]) = 0 for some needed s."""

    def __init__(self, part: int):
        self.part = part
        super().__init__(
            f"character vanishes on [{part}]; the induced morphism is singular there"
        )


class InvalidCharacterError(ValueError):
    """A character table failed validation on ingestion."""


class Character:
    """Finite table of a multiplicative functional, with a weight horizon.

    ``values`` maps compositions to exact rationals; the unit maps to 1.
    Lookups beyond ``max_weight`` (or absent from the table when no backing
    rule is installed) raise :class:`CoverageError`.  Instances are
    immutable in use and hashed by identity.

    The basis columns of the induced morphism are memoized in ``_psi``,
    keyed by composition.  The memo has no bound: it holds every column any
    call has reached (every column of weights 1..12, once all of them are
    built, is about 890 000 entries) and is freed together with the
    character.
    """

    __slots__ = ("_values", "_rule", "max_weight", "label", "_psi")

    def __init__(
        self,
        values: Mapping,
        max_weight: int,
        label: str = "",
        rule: Callable[[Composition], Rational] | None = None,
    ):
        if max_weight < 0:
            raise ValueError("max_weight must be >= 0")
        table: dict[Composition, Rational] = {}
        for key, value in values.items():
            c = Composition(key)
            if c.weight > max_weight:
                raise ValueError(f"table entry {c} exceeds the horizon {max_weight}")
            table[c] = coerce_coeff(value)
        if table.setdefault(UNIT, 1) != 1:
            raise ValueError("a character must send the unit to 1")
        self._values = table
        self._rule = rule
        self.max_weight = max_weight
        self.label = label
        self._psi: dict[Composition, Column] = {UNIT: (1, _packed([1]), [1])}

    def value(self, c) -> Fraction:
        return Fraction(self._lookup(Composition(c)))

    def _lookup(self, c: Composition) -> Rational:
        """chi(c) as stored, ``int`` or ``Fraction``; ``c`` must be valid."""
        try:
            return self._values[c]
        except KeyError:
            pass
        if c.weight > self.max_weight:
            raise CoverageError(
                f"{self.label or 'character'} covers weight <= {self.max_weight}, "
                f"cannot evaluate at {c}"
            )
        if self._rule is None:
            raise CoverageError(f"no table entry for {c}")
        v = coerce_coeff(self._rule(c))
        self._values[c] = v
        return v

    def __call__(self, arg) -> Fraction:
        if isinstance(arg, Element):
            return Fraction(
                sum(q * self.value(c) for c, q in arg._terms.items())
            )
        return self.value(arg)

    def __repr__(self) -> str:
        name = self.label or "character"
        return f"Character({name!r}, max_weight={self.max_weight})"


def factorial_character(max_weight: int = 12) -> Character:
    """The character sending every composition of weight n to 1/n!."""
    return Character(
        {},
        max_weight=max_weight,
        label="factorial",
        rule=lambda c: Fraction(1, factorial(c.weight)),
    )


@dataclass(frozen=True)
class CharacterCheck:
    """Result of validate_character; truthy iff the table is multiplicative."""

    ok: bool
    violation: tuple[Composition, Composition] | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate_character(chi: Character) -> CharacterCheck:
    """Check chi(unit) = 1 and chi(a sh b) = chi(a)chi(b) up to the horizon.

    Runs over every basis pair with total weight within ``chi.max_weight``
    and reports the first violating pair.  Cost grows quickly with the
    horizon; validation at horizon 12 takes noticeable time.
    """
    if chi.value(UNIT) != 1:
        return CharacterCheck(False, (UNIT, UNIT), "unit does not map to 1")
    top = chi.max_weight
    for m in range(1, top):
        for a in enumerate_basis(m):
            for n in range(1, top - m + 1):
                for b in enumerate_basis(n):
                    lhs = chi(shuffle_algebra.shuffle(a, b))
                    rhs = chi.value(a) * chi.value(b)
                    if lhs != rhs:
                        return CharacterCheck(
                            False,
                            (a, b),
                            f"chi({a} sh {b}) = {lhs} but chi({a})*chi({b}) = {rhs}",
                        )
    return CharacterCheck(True)


# ---------------------------------------------------------------------------
# the induced morphism


def induced_morphism_fast(chi: Character, e) -> Element:
    """Same morphism, from memoized basis columns (the production route).

    The image of a basis element ``c`` follows the recursion

        psi(c) = chi(c)*[|c|] + sum over (u, v) in the reduced coproduct of c
                 of w * chi(u) * ([|u|] concatenated with psi(v)),

    which expands the last tensor factor of the iterated reduced coproduct
    instead of the first; coassociativity makes the two expansions agree.
    Columns are cached on ``chi`` and shared with ``morphism_matrix`` and
    ``preimage``.  The image is summed by code in integers over one common
    denominator; each coefficient is made exact, and each code decoded, once.
    """
    cols = [(q, _psi_column(chi, c)) for c, q in as_element(e)._terms.items()]
    den = lcm(*[q.denominator * cden for q, (cden, _, _) in cols])
    by_code = scaled_sum(
        (
            (zip(codes, nums), q.numerator * (den // (q.denominator * cden)))
            for q, (cden, codes, nums) in cols
        ),
        den,
    )
    return Element._raw({_decode(w): q for w, q in by_code.items()})


def _psi_column(chi: Character, c: Composition) -> Column:
    """psi(c) as ``(den, codes, nums)``, memoized in ``chi._psi``.

    ``psi(c) = sum of nums[i] / den * [decode(codes[i])]`` with ``den >= 1``,
    ``codes`` strictly ascending, nonzero integer numerators and
    ``gcd(den, *nums) == 1``.  The column is built in integers: one ``lcm``
    over the denominators of its parts, integer multiply-adds keyed by code,
    and one final ``gcd`` reduction.  Callers must not mutate it.
    """
    col = chi._psi.get(c)
    if col is not None:
        return col
    x = chi._lookup(c)
    den = x.denominator
    parts = []
    for (u, v), w in shuffle_algebra._reduced_coproduct_basis(c)._terms.items():
        y = chi._lookup(u)
        if not y:
            continue
        vden, vcodes, vnums = _psi_column(chi, v)
        d = w.denominator * y.denominator * vden
        den = lcm(den, d)
        parts.append((w.numerator * y.numerator, d, vcodes, vnums))
    # [|u|] concatenated with a row of code k has the code top | k
    top = 1 << c.weight
    acc = {top | 1: x.numerator * (den // x.denominator)}
    get = acc.get
    for a, d, vcodes, vnums in parts:
        f = a * (den // d)
        for k, n in zip(vcodes, vnums):
            k |= top
            acc[k] = get(k, 0) + f * n
    codes = sorted(k for k, n in acc.items() if n)
    nums = [acc[k] for k in codes]
    g = gcd(den, *nums)
    if g > 1:
        den //= g
        nums = [n // g for n in nums]
    col = chi._psi[c] = (den, _packed(codes), nums)
    return col


# ---------------------------------------------------------------------------
# matrices and inversion


@dataclass(frozen=True)
class GradedMatrix:
    """Matrix of a graded map on one weight component, in the ascending basis.

    ``columns[j]`` is the image of ``basis[j]`` as a ``(den, codes, nums)``
    triple, the memoized psi column (shared, not copied); the row of code
    ``d`` is ``(d >> 1) - 2^(weight-1)``, and absent rows are zero.
    ``entries[row][col]`` is ``entry(row, col)``, the coefficient of
    ``basis[row]`` in the image of ``basis[col]``, built densely on first
    use.  For induced-morphism matrices this is upper triangular with the
    diagonal products described in the module docstring.  The text
    renderings never use ``entries``: they are made row by row from a
    compact row index (``_row_index``).
    """

    weight: int
    basis: tuple[Composition, ...]
    columns: tuple[Column, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        span = range(self.dimension)
        return tuple(tuple(self.entry(i, j) for j in span) for i in span)

    def entry(self, row: int, col: int) -> Fraction:
        den, codes, nums = self.columns[col]
        d = _code(self.basis[row])
        i = bisect_left(codes, d)
        return Fraction(nums[i] if i < len(codes) and codes[i] == d else 0, den)

    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self.entry(i, i) for i in range(self.dimension))

    def is_upper_triangular(self) -> bool:
        low = 1 << (self.weight - 1)
        return all(
            (d >> 1) - low <= j
            for j, (_, codes, _) in enumerate(self.columns)
            for d in codes
        )

    # Each renderer below makes every text and width before its first line,
    # so an error while they are made writes nothing to ``out``; only a
    # failing ``out.write`` can stop the output part way.

    def to_csv(self, out: TextIO | None = None) -> str | None:
        """The matrix as CSV, the basis as its header line.  With ``out``,
        each line is written to it as it is made and None is returned."""
        return _deliver(self._csv_lines(), out)

    def to_table(self, out: TextIO | None = None) -> str | None:
        """The matrix as a table aligned right in columns, labelled by the
        basis; ``out`` as for :meth:`to_csv`."""
        return _deliver(self._table_lines(), out)

    def to_json(self, out: TextIO | None = None) -> str | None:
        """``json.dumps`` of ``{"weight", "basis", "entries"}``, the entries
        as the ``str`` of every entry row by row (zero entries read ``"0"``),
        with no dense grid of cells held; ``out`` as for :meth:`to_csv`."""
        return _deliver(self._json_lines(), out)

    def _csv_lines(self) -> Iterator[str]:
        cols, texts, _ = self._row_index()
        yield ",".join(str(c) for c in self.basis) + "\n"
        for row in _rows(cols, texts, [0] * self.dimension):
            yield ",".join(row) + "\n"

    def _table_lines(self) -> Iterator[str]:
        headers = [str(c) for c in self.basis]
        cols, texts, widths = self._row_index()
        # a header is never narrower than "[1]", so zeros never set a width
        widths = [max(len(h), w) for h, w in zip(headers, widths)]
        stub = max(len(h) for h in headers)
        yield " " * stub + "  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths)) + "\n"
        for label, row in zip(headers, _rows(cols, texts, widths)):
            yield label.rjust(stub) + "  " + "  ".join(row) + "\n"

    def _json_lines(self) -> Iterator[str]:
        """The document in pieces: one per row, the first and last also
        carrying the text before and after the rows."""
        cols, texts, _ = self._row_index()
        basis = json.dumps([list(c) for c in self.basis])
        sep = f'{{"weight": {self.weight}, "basis": {basis}, "entries": ['
        for row in _rows(cols, texts, [0] * self.dimension):
            yield sep + json.dumps(row)
            sep = ", "
        yield "]}"

    def _row_index(self) -> tuple[list[array], list[list[str]], list[int]]:
        """Per row, the columns of its nonzero entries as an ``array('I')``
        and their texts in a parallel list; and per column, the length of
        its longest text.  Each distinct value is made into text once, and
        every entry with that value shares the one string."""
        low = 1 << (self.weight - 1)
        cols = [array("I") for _ in self.basis]
        texts: list[list[str]] = [[] for _ in self.basis]
        widths = []
        known: dict[int, dict[int, str]] = {}  # den -> numerator -> text
        for j, (den, codes, nums) in enumerate(self.columns):
            made = known.setdefault(den, {})
            width = 0
            for d, n in zip(codes, nums):
                s = made.get(n)
                if s is None:
                    s = made[n] = _fraction_text(n, den)
                i = (d >> 1) - low
                cols[i].append(j)
                texts[i].append(s)
                if len(s) > width:
                    width = len(s)
            widths.append(width)
        return cols, texts, widths


def _rows(cols, texts, widths: list[int]) -> Iterator[list[str]]:
    """Dense rows of entry texts from a row index, each text right-justified
    to its column's width; rows are made one at a time, so no dense grid is
    ever held."""
    zeros = ["0".rjust(w) for w in widths]
    for row_cols, row_texts in zip(cols, texts):
        row = zeros.copy()
        for j, s in zip(row_cols, row_texts):
            row[j] = s.rjust(widths[j])
        yield row


def _deliver(lines: Iterator[str], out: TextIO | None) -> str | None:
    """Join ``lines`` into one string, or, given ``out``, write each line to
    it as it comes and return None."""
    if out is None:
        return "".join(lines)
    for line in lines:
        out.write(line)
    return None


def _fraction_text(n: int, den: int) -> str:
    """``str(Fraction(n, den))`` without building the Fraction."""
    g = gcd(n, den)
    if g == den:
        return str(n // g)
    return f"{n // g}/{den // g}"


def morphism_matrix(chi: Character, n: int) -> GradedMatrix:
    """Matrix of the induced morphism on the weight-``n`` component."""
    if n < 1:
        raise ValueError("matrix weight must be >= 1")
    if n > chi.max_weight:
        raise CoverageError(
            f"{chi.label or 'character'} covers weight <= {chi.max_weight}, "
            f"cannot build the weight-{n} matrix"
        )
    basis = tuple(enumerate_basis(n))
    return GradedMatrix(
        weight=n, basis=basis, columns=tuple(_psi_column(chi, c) for c in basis)
    )


def preimage(chi: Character, e) -> Element:
    """The unique x with induced_morphism_fast(chi, x) = e.

    Solved per weight by sparse back-substitution on a residual keyed by
    code: walking the codes of the ascending basis from the top down, each
    nonzero residual entry ``r`` at the code of ``c`` gives one factor
    ``t = r / nums[-1]`` from the integer psi column ``(den, codes, nums)``
    of ``c``, whose last row is ``c`` itself; the output coefficient is
    ``t * den`` and ``t * n`` is subtracted for each numerator ``n`` of the
    column.  Only the columns reached are built, never the dense matrix.
    Raises SingularCharacterError naming the smallest depth-one weight s
    with chi([s]) = 0 at or below the top weight of ``e``.
    """
    e = as_element(e)
    top = e.max_weight()
    for s in range(1, top + 1):
        if chi.value(Composition((s,))) == 0:
            raise SingularCharacterError(s)
    residual = {_code(c): q for c, q in e._terms.items()}
    out: dict[Composition, Rational] = {}
    for n in component_weights(e):
        # the odd codes of weight n, top down; at n = 0 the unit's code 1
        for w in range((2 << n) - 1, (1 << n) - 1, -2):
            r = residual.get(w)
            if not r:
                continue
            c = _decode(w)
            den, codes, nums = _psi_column(chi, c)
            t = coerce_coeff(Fraction(r, nums[-1]))
            out[c] = coerce_coeff(t * den)
            # the column is upper triangular, so this zeroes residual[w] and
            # changes only entries further down the walk
            for d, q in zip(codes, nums):
                residual[d] = residual.get(d, 0) - t * q
    return Element._raw(out)


# ---------------------------------------------------------------------------
# character files


def read_character_file(path) -> Character:
    """Load a character table from a JSON document and validate it.

    Layout: {"label": str, "max_weight": int, "values": {"[2,1]": "1/6", ...}}
    with every composition of weight 1..max_weight present.  Invalid tables
    are rejected with the violating pair in the message.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidCharacterError(f"character file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidCharacterError("character file must hold a JSON object")
    try:
        max_weight = int(doc["max_weight"])
    except (KeyError, TypeError, ValueError):
        raise InvalidCharacterError("character file needs an integer 'max_weight'")
    label = str(doc.get("label", ""))
    raw = doc.get("values")
    if not isinstance(raw, dict):
        raise InvalidCharacterError("character file needs a 'values' table")
    values: dict[Composition, Fraction] = {}
    for key, text in raw.items():
        try:
            c = _parse_composition_key(key)
        except ValueError as exc:
            raise InvalidCharacterError(f"bad composition key {key!r}: {exc}") from exc
        try:
            values[c] = Fraction(str(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidCharacterError(f"bad value for {key!r}: {exc}") from exc
    for n in range(1, max_weight + 1):
        for c in enumerate_basis(n):
            if c not in values:
                raise InvalidCharacterError(f"missing value for {c}")
    try:
        chi = Character(values, max_weight=max_weight, label=label)
    except ValueError as exc:
        raise InvalidCharacterError(str(exc)) from exc
    check = validate_character(chi)
    if not check:
        a, b = check.violation
        raise InvalidCharacterError(
            f"table is not multiplicative at ({a}, {b}): {check.detail}"
        )
    return chi


def _parse_composition_key(key: str) -> Composition:
    key = key.strip()
    if key == "1" or key == "":
        return UNIT
    if not (key.startswith("[") and key.endswith("]")):
        raise ValueError("expected '[s1,s2,...]' or '1'")
    body = key[1:-1].strip()
    if not body:
        raise ValueError("empty brackets; use '1' for the unit")
    return Composition(int(p) for p in body.split(","))
