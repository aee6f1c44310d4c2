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

The columns are computed in plain integers.  Each memoized column is
a pair ``(den, nums)``: one positive denominator and integer numerators
keyed by composition, reduced so that ``gcd(den, *nums) == 1``.  Exact
rationals (``int`` or ``Fraction``) appear again only in the results
handed to callers.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from typing import Callable, Iterator, Mapping, TextIO

from .compositions import UNIT, Composition, enumerate_basis
from .elements import (
    Element,
    Rational,
    as_element,
    coerce_coeff,
    component_weights,
    scaled_sum,
)
from . import shuffle_algebra

_new = tuple.__new__

#: A psi column: one denominator >= 1 and integer numerators keyed by
#: composition, with gcd(den, *numerators) == 1.
Column = tuple[int, dict[Composition, int]]

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

    The basis columns of the induced morphism are memoized in ``_psi``, and
    the compositions that key them in ``_keys``.  The memo has no bound: it
    holds every column any call has reached (every column of weights 1..12,
    once all of them are built, is about 890 000 entries) and is freed
    together with the character.
    """

    __slots__ = ("_values", "_rule", "max_weight", "label", "_psi", "_keys")

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
        self._psi: dict[Composition, Column] = {UNIT: (1, {UNIT: 1})}
        self._keys: dict[tuple[int, ...], Composition] = {}

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
    ``preimage``.  The image is summed as integers over one common
    denominator, and each of its coefficients is made exact once.
    """
    cols = [(q, _psi_column(chi, c)) for c, q in as_element(e)._terms.items()]
    den = lcm(*[q.denominator * cden for q, (cden, _) in cols])
    return Element._raw(
        scaled_sum(
            (
                (nums.items(), q.numerator * (den // (q.denominator * cden)))
                for q, (cden, nums) in cols
            ),
            den,
        )
    )


def _psi_column(chi: Character, c: Composition) -> Column:
    """psi(c) as ``(den, nums)``, memoized in ``chi._psi``.

    ``psi(c) = sum of nums[d] / den * [d]`` with ``den >= 1``, integer
    numerators and ``gcd(den, *nums.values()) == 1``.  The column is built
    in integers: one ``lcm`` over the denominators of its parts, integer
    multiply-adds, and one final ``gcd`` reduction.  Callers must not
    mutate it.
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
        vden, vnums = _psi_column(chi, v)
        d = w.denominator * y.denominator * vden
        den = lcm(den, d)
        parts.append((u.weight, w.numerator * y.numerator, d, vnums))
    # Keys are interned in chi._keys, looked up as plain tuples of parts >= 1:
    # none goes through the validating constructor, and all columns share one
    # object per key.
    keys = chi._keys
    t = (c.weight,)
    nums = {keys.setdefault(t, _new(Composition, t)): x.numerator * (den // x.denominator)}
    for head, a, d, vnums in parts:
        f = a * (den // d)
        for k, n in vnums.items():
            t = (head, *k)
            key = keys.get(t) or keys.setdefault(t, _new(Composition, t))
            nums[key] = nums.get(key, 0) + f * n
    nums = {k: n for k, n in nums.items() if n}
    g = gcd(den, *nums.values())
    if g > 1:
        den //= g
        nums = {k: n // g for k, n in nums.items()}
    col = chi._psi[c] = (den, nums)
    return col


# ---------------------------------------------------------------------------
# matrices and inversion


@dataclass(frozen=True)
class GradedMatrix:
    """Matrix of a graded map on one weight component, in the ascending basis.

    ``columns[j]`` is the image of ``basis[j]`` as a ``(den, nums)`` pair:
    integer numerators over one positive denominator, keyed by composition,
    with absent keys zero (the memoized psi columns, shared, not copied).
    ``entries[row][col]`` is the coefficient of ``basis[row]`` in the image
    of ``basis[col]``, built densely on first use.  For induced-morphism
    matrices this is upper triangular with the diagonal products described
    in the module docstring.  The text renderings never use ``entries``:
    they are made row by row from a compact row index (``_row_index``).
    """

    weight: int
    basis: tuple[Composition, ...]
    columns: tuple[Column, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        zero = Fraction(0)
        index = self._index
        cols = []
        for den, nums in self.columns:
            col = [zero] * self.dimension
            for d, n in nums.items():
                col[index[d]] = Fraction(n, den)
            cols.append(col)
        return tuple(zip(*cols))

    @cached_property
    def _index(self) -> dict[Composition, int]:
        return {c: i for i, c in enumerate(self.basis)}

    def entry(self, row: int, col: int) -> Fraction:
        den, nums = self.columns[col]
        return Fraction(nums.get(self.basis[row], 0), den)

    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self.entry(i, i) for i in range(self.dimension))

    def is_upper_triangular(self) -> bool:
        index = self._index
        return all(
            index[d] <= j
            for j, (_, nums) in enumerate(self.columns)
            for d in nums
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
        index = self._index
        cols = [array("I") for _ in self.basis]
        texts: list[list[str]] = [[] for _ in self.basis]
        widths = []
        known: dict[int, dict[int, str]] = {}  # den -> numerator -> text
        for j, (den, nums) in enumerate(self.columns):
            made = known.setdefault(den, {})
            width = 0
            for d, n in nums.items():
                s = made.get(n)
                if s is None:
                    s = made[n] = _fraction_text(n, den)
                i = index[d]
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

    Solved per weight by sparse back-substitution: walking the ascending
    basis from the top down, each nonzero residual entry ``r`` at ``c``
    gives one factor ``t = r / nums[c]`` from the integer psi column
    ``(den, nums)`` of ``c``; the output coefficient is ``t * den`` and
    ``t * n`` is subtracted for each numerator ``n`` of the column.  Only
    the columns reached are built, never the dense matrix.  Raises
    SingularCharacterError naming the smallest depth-one weight s with
    chi([s]) = 0 at or below the top weight of ``e``.
    """
    e = as_element(e)
    top = e.max_weight()
    for s in range(1, top + 1):
        if chi.value(Composition((s,))) == 0:
            raise SingularCharacterError(s)
    residual = dict(e._terms)
    out: dict[Composition, Rational] = {}
    for n in component_weights(e):
        for c in reversed(enumerate_basis(n)):
            r = residual.get(c)
            if not r:
                continue
            den, nums = _psi_column(chi, c)
            t = coerce_coeff(Fraction(r, nums[c]))
            out[c] = coerce_coeff(t * den)
            # the column is upper triangular, so this zeroes residual[c] and
            # changes only entries further down the walk
            for d, q in nums.items():
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
