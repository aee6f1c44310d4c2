"""Output checks that do not use mzhopf.

Every check takes an op's inputs and the program's output and returns
``None`` when the output is right, or a one-line reason when it is not.
They rest on closed forms that hold for any input:

* the factorial-character matrix of weight n is upper triangular in the
  ascending basis, its first row is all 1/n! and its diagonal entry at
  [s1,...,sk] is the product of 1/si!;
* hence psi(e) has coefficient (sum of q)/n! on [n] and keeps the
  coefficient of [1,...,1], and psi-inv(e) has coefficient sum n! * e([n]);
* a shuffle of basis elements of weights a and b has coefficient sum
  binom(a+b, a), and every term has the summed depth;
* a stuffle of depth-p and depth-q basis elements has coefficient sum
  equal to the Delannoy number D(p, q);
* the quasi-shuffle antipode is (-1)^depth times the coarsenings of the
  reversed composition;
* a truncated zeta value is positive, grows with the cutoff, stays below
  zeta(weight) (sum theorem) and, where a closed form exists, within a
  computed tail bound of it; the stuffle identity holds exactly for
  truncated sums.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# compositions


def compositions(n: int) -> list[tuple]:
    """All compositions of n, in the ascending order of the package docs:
    within a weight, larger parts earlier mean a smaller composition."""
    out = []
    for cuts in itertools.product((False, True), repeat=max(n - 1, 0)):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return sorted(out, key=lambda c: tuple(-p for p in c))


def order_key(c) -> tuple:
    return tuple(-p for p in c)


def coarsenings(c: tuple) -> set[tuple]:
    out = set()
    for cuts in itertools.product((False, True), repeat=max(len(c) - 1, 0)):
        merged = [c[0]]
        for part, cut in zip(c[1:], cuts):
            if cut:
                merged.append(part)
            else:
                merged[-1] += part
        out.add(tuple(merged))
    return out


def delannoy(p: int, q: int) -> int:
    return sum(math.comb(p, k) * math.comb(q, k) * 2**k for k in range(min(p, q) + 1))


def exact_sum(values) -> Fraction:
    """Sum of Fractions, adding numerators per denominator first (the
    outputs have few distinct denominators, so this is much faster)."""
    by_den: dict[int, int] = {}
    for q in values:
        by_den[q.denominator] = by_den.get(q.denominator, 0) + q.numerator
    return sum((Fraction(n, d) for d, n in by_den.items()), Fraction(0))


def inv_factorial_product(c) -> Fraction:
    out = Fraction(1)
    for s in c:
        out /= math.factorial(s)
    return out


def terms_of(records) -> dict[tuple, Fraction]:
    """[[parts, "p/q"], ...] (benchmark inputs) -> {composition: Fraction}."""
    return {tuple(c): Fraction(q) for c, q in records}


def terms_of_json(doc) -> dict[tuple, Fraction]:
    """The CLI's {"kind": "element", "terms": [{"coeff", "comp"}]} form."""
    if doc.get("kind") != "element":
        raise ValueError("not an element document")
    return {tuple(t["comp"]): Fraction(t["coeff"]) for t in doc["terms"]}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# morphism outputs

_COMP_RE = re.compile(r"\[[0-9,]*\]")


def parse_matrix(text: str, fmt: str) -> tuple[list[tuple], list[list[Fraction]]]:
    """(basis, rows) from `mzhopf matrix` output in any of its formats."""
    if fmt == "json":
        doc = json.loads(text)
        basis = [tuple(c) for c in doc["basis"]]
        rows = [[Fraction(v) for v in row] for row in doc["entries"]]
        return basis, rows
    lines = text.rstrip("\n").splitlines()  # `print` adds a newline after the table's own
    basis =[tuple(int(p) for p in m[1:-1].split(",")) for m in _COMP_RE.findall(lines[0])]
    rows = []
    for line in lines[1:]:
        cells = line.split(",") if fmt == "csv" else line.split()[1:]
        rows.append([Fraction(v) for v in cells])
    return basis, rows


def check_matrix(weight: int, basis, rows) -> str | None:
    expected = compositions(weight)
    if basis != expected:
        return f"weight-{weight} basis is not the ascending chain"
    dim = len(basis)
    if len(rows) != dim or any(len(r) != dim for r in rows):
        return f"weight-{weight} matrix is not {dim}x{dim}"
    top = Fraction(1, math.factorial(weight))
    for j in range(dim):
        if rows[0][j] != top:
            return f"row [{weight}] entry at {basis[j]} is {rows[0][j]}, not {top}"
        if rows[j][j] != inv_factorial_product(basis[j]):
            return f"diagonal at {basis[j]} is {rows[j][j]}"
        for i in range(j + 1, dim):
            if rows[i][j]:
                return f"entry ({basis[i]}, {basis[j]}) below the diagonal is {rows[i][j]}"
    return None


def _by_weight(terms: dict) -> dict[int, dict]:
    out: dict[int, dict] = {}
    for c, q in terms.items():
        out.setdefault(sum(c), {})[c] = q
    return out


def _triangular_support(inp: dict, out: dict) -> str | None:
    """Output support per weight lies at or below the largest input term."""
    tops = {w: max(part, key=order_key) for w, part in _by_weight(inp).items()}
    for c in out:
        top = tops.get(sum(c))
        if top is None:
            return f"output term {list(c)} has a weight absent from the input"
        if order_key(c) > order_key(top):
            return f"output term {list(c)} lies above the input's top term {list(top)}"
    return None


def check_psi(inp: dict, out: dict) -> str | None:
    for n, part in _by_weight(inp).items():
        want = sum(part.values()) / math.factorial(n)
        if out.get((n,), 0) != want:
            return f"coefficient of [{n}] is {out.get((n,), 0)}, not {want}"
        ones = (1,) * n
        if out.get(ones, 0) != part.get(ones, 0):
            return f"coefficient of [1^{n}] is {out.get(ones, 0)}, not {part.get(ones, 0)}"
    return _triangular_support(inp, out)


def check_psi_inv(inp: dict, out: dict) -> str | None:
    for n, part in _by_weight(inp).items():
        got = sum(q for c, q in out.items() if sum(c) == n)
        want = math.factorial(n) * part.get((n,), 0)
        if got != want:
            return f"weight-{n} coefficient sum is {got}, not {n}! * e([{n}]) = {want}"
        ones = (1,) * n
        if out.get(ones, 0) != part.get(ones, 0):
            return f"coefficient of [1^{n}] is {out.get(ones, 0)}, not {part.get(ones, 0)}"
    return _triangular_support(inp, out)


# ---------------------------------------------------------------------------
# algebra outputs


def check_product(form: str, factors: list[dict], out: dict) -> str | None:
    """Coefficient sum and weight of a sh b, a st b or (a sh b) st c."""
    weights = [sum(next(iter(f))) for f in factors]
    total_weight = sum(weights)
    bad = [c for c in out if sum(c) != total_weight]
    if bad:
        return f"term {list(bad[0])} is not of weight {total_weight}"
    want = Fraction(0)
    if form == "sh":
        (a, b) = factors
        want = sum(a.values()) * sum(b.values()) * math.comb(total_weight, weights[0])
    elif form == "st":
        (a, b) = factors
        for ca, qa in a.items():
            for cb, qb in b.items():
                want += qa * qb * delannoy(len(ca), len(cb))
    else:
        # every term of x sh y has depth depth(x) + depth(y)
        (a, b, c) = factors
        mult = math.comb(weights[0] + weights[1], weights[0])
        for ca, qa in a.items():
            for cb, qb in b.items():
                for cc, qc in c.items():
                    want += qa * qb * qc * mult * delannoy(len(ca) + len(cb), len(cc))
    got = exact_sum(out.values())
    if got != want:
        return f"{form} coefficient sum is {got}, not {want}"
    return None


def quasi_antipode(terms: dict) -> dict:
    out: dict[tuple, Fraction] = {}
    for c, q in terms.items():
        sign = -1 if len(c) % 2 else 1
        for d in coarsenings(tuple(reversed(c))):
            out[d] = out.get(d, 0) + sign * q
    return {d: q for d, q in out.items() if q}


def check_quasi_antipode(inp: dict, out: dict) -> str | None:
    if out != quasi_antipode(inp):
        return "quasi-shuffle antipode differs from the reversed-coarsening closed form"
    return None


def check_coproduct(inp: dict, out: dict) -> str | None:
    """Out maps (u, v) pairs to coefficients: counit terms and grading."""
    for c, q in inp.items():
        for key in (((), c), (c, ())):
            if out.get(key, 0) != q:
                return f"coefficient of {key} is {out.get(key, 0)}, not {q}"
    w = sum(next(iter(inp)))
    for (u, v) in out:
        if sum(u) + sum(v) != w:
            return f"term {list(u)} (x) {list(v)} is not of weight {w}"
    return None


def check_graded(inp: dict, out: dict) -> str | None:
    w = sum(next(iter(inp)))
    for c in out:
        if sum(c) != w:
            return f"term {list(c)} is not of weight {w}"
    return None


# ---------------------------------------------------------------------------
# zeta values

_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
              Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6))


def zeta(s: int) -> float:
    """Riemann zeta at an integer s >= 2 by Euler-Maclaurin (error < 1e-16)."""
    m = 20
    total = math.fsum(n ** -s for n in range(1, m))
    total += m ** (1 - s) / (s - 1) + 0.5 * m ** -s
    rising = s
    for j, b in enumerate(_BERNOULLI, start=1):
        # rising = s (s+1) ... (s+2j-2)
        total += float(b) / math.factorial(2 * j) * rising * m ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def closed_form(c: tuple) -> float | None:
    """Exact zeta(c) for the families with a classical closed form."""
    if len(c) == 1:
        return zeta(c[0])
    if c[0] == 2 and all(p == 1 for p in c[1:]):
        return zeta(len(c) + 1)  # duality: (2,{1}^m) = zeta(m+2)
    if c == (3, 1):
        return math.pi**4 / 360
    if all(p == 2 for p in c):
        k = len(c)
        return math.pi ** (2 * k) / math.factorial(2 * k + 1)
    return None


def tail_bound(terms: int, depth: int) -> float:
    """Upper bound on zeta(c) - zeta_N(c) for admissible c of this depth.

    The inner sums are at most (1 + ln n)^(depth-1)/(depth-1)!, so the tail
    is at most the integral of that times x^-2 from N, which is
    (1/N) * sum_{j<depth} (1 + ln N)^j / j!.
    """
    x = 1 + math.log(terms)
    return sum(x**j / math.factorial(j) for j in range(depth)) / terms


#: Rounding slack for a float64 cumulative sum of a few million terms.
FLOAT_SLACK = 1e-9


def check_zeta(c: tuple, terms: int, value: float) -> str | None:
    if not value > 0:
        return f"zeta_{terms}({list(c)}) = {value} is not positive"
    bound = zeta(sum(c))
    if value > bound + FLOAT_SLACK:
        return f"zeta_{terms}({list(c)}) = {value} exceeds zeta({sum(c)}) = {bound}"
    exact = closed_form(c)
    if exact is None:
        return None
    if len(c) == 1:
        # sum_{n>N} n^-s lies between the integrals from N+1 and from N
        s = c[0]
        hi = exact - (terms + 1) ** (1 - s) / (s - 1)
        lo = exact - terms ** (1 - s) / (s - 1)
    else:
        hi, lo = exact, exact - tail_bound(terms, len(c))
    if not lo - FLOAT_SLACK <= value <= hi + FLOAT_SLACK:
        return f"zeta_{terms}({list(c)}) = {value!r} outside [{lo!r}, {hi!r}]"
    return None


def check_zeta_monotone(c: tuple, lo_terms: int, lo_value: float,
                        hi_terms: int, hi_value: float) -> str | None:
    if lo_value > hi_value + FLOAT_SLACK:
        return (f"zeta_N({list(c)}) decreases from N={lo_terms} ({lo_value!r}) "
                f"to N={hi_terms} ({hi_value!r})")
    return None


def zeta_truncated(c: tuple, terms: int) -> float:
    """Reference truncated sum for depth <= 2: sum over n of n^-s1 times
    the strictly smaller partial sum of the inner series."""
    import numpy as np  # here, so that the worker's set-up time includes numpy's import

    n = np.arange(1, terms + 1, dtype=np.float64)
    outer = n ** -float(c[0])
    if len(c) == 1:
        return math.fsum(outer)
    inner = np.concatenate(([0.0], np.cumsum(n[:-1] ** -float(c[1]))))
    return math.fsum(outer * inner)


def check_stuffle_value(a: tuple, b: tuple, terms: int, value: float) -> str | None:
    """Truncated sums obey the stuffle product exactly."""
    want = zeta_truncated(a, terms) * zeta_truncated(b, terms)
    if abs(value - want) > FLOAT_SLACK * max(1.0, abs(want)):
        return f"zeta_N({list(a)} st {list(b)}) = {value!r}, product of factors {want!r}"
    return None


def check_shuffle_value(a: tuple, b: tuple, terms: int, value: float) -> str | None:
    """zeta_N of a shuffle and the product of truncations both fall short of
    zeta(a) zeta(b) by at most their tail bounds."""
    za, zb = zeta_truncated(a, terms), zeta_truncated(b, terms)
    wa, wb = sum(a), sum(b)
    shuffle_gap = math.comb(wa + wb, wa) * tail_bound(terms, len(a) + len(b))
    product_gap = zeta(wa) * tail_bound(terms, len(b)) + zeta(wb) * tail_bound(terms, len(a))
    if abs(value - za * zb) > max(shuffle_gap, product_gap) + FLOAT_SLACK:
        return (f"zeta_N({list(a)} sh {list(b)}) = {value!r} is further than the tail "
                f"bound from {za * zb!r}")
    return None


# ---------------------------------------------------------------------------
# verify suites


def check_verify(text: str) -> tuple[int, str | None]:
    """(checks examined, failure) for `mzhopf verify --suite S` output."""
    lines = text.splitlines()
    if not lines:
        return 0, "no output"
    m = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1])
    if not m:
        return 0, f"last line {lines[-1]!r} is not a summary"
    passed, total = int(m.group(1)), int(m.group(2))
    if total == 0 or total != len(lines) - 1:
        return total, f"summary counts {total} checks but {len(lines) - 1} were listed"
    failed = [ln for ln in lines[:-1] if not ln.startswith("[PASS] ")]
    if failed or passed != total:
        return total, f"failed: {failed[0] if failed else lines[-1]}"
    return total, None
