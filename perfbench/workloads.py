"""Seeded op lists for the four benchmark workloads.

Nothing here imports mzhopf: the program only ever sees the inputs built
below.  A workload runs in passes; every pass of one workload has the same
mix of op kinds and weights, and the seed only chooses the concrete
compositions, coefficients, formats and order.  That keeps the cost of a
pass steady across seeds while the inputs differ.

An op is a plain dict with an ``id``, a ``kind`` and the arguments of its
kind; ``expect`` holds whatever an oracle needs to check the output.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

WORKLOADS = ("cold-morphism", "warm-algebra", "zeta-sweep", "verify-suites")

#: The seed whose outputs are pinned by the golden digests.
DEFAULT_SEED = 1

#: A run stops after this many passes even when time is left.
MAX_PASSES = 100

SUITES = (
    "order",
    "hopf-shuffle",
    "hopf-qsh",
    "morphism",
    "rota-baxter",
    "triangular",
    "double-shuffle",
)

#: Per-suite weight caps.  ``triangular`` keeps its inversion identity at
#: weight 8; ``morphism`` is capped at 7 so that a pass of all seven suites
#: fits several times into one run (at its default of 8 it alone takes ~5 s).
SUITE_CAPS = {"triangular": 8, "morphism": 7}


def _rng(workload: str, seed: int, label) -> random.Random:
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{label}")


def random_composition(rng: random.Random, weight: int) -> tuple:
    """Uniform composition of ``weight``."""
    parts, run = [], 1
    for _ in range(weight - 1):
        if rng.random() < 0.5:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return tuple(parts)


def composition_of_depth(rng: random.Random, weight: int, depth: int) -> tuple:
    """Uniform composition of the given weight and depth: depth-1 cut points
    among the weight-1 slots."""
    cuts = sorted(rng.sample(range(1, weight), depth - 1))
    bounds = [0] + cuts + [weight]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def random_admissible(rng: random.Random, weight: int, depth: int) -> tuple:
    """Composition of the given weight and depth with first part >= 2."""
    while True:
        parts = composition_of_depth(rng, weight, depth)
        if parts[0] >= 2:
            return parts


def random_rational(rng: random.Random) -> Fraction:
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    return Fraction(num, rng.randint(1, 6))


def comp_text(c) -> str:
    return "[" + ",".join(str(p) for p in c) + "]"


def element_text(terms) -> str:
    """Expression text for a list of (composition, Fraction) terms."""
    pieces = []
    for c, q in terms:
        mag = abs(q)
        body = comp_text(c) if mag == 1 else f"{mag}*{comp_text(c)}"
        if not pieces:
            pieces.append(body if q > 0 else "-" + body)
        else:
            pieces.append(("+ " if q > 0 else "- ") + body)
    return " ".join(pieces)


def random_element(rng: random.Random, weights) -> list:
    """One term per entry of ``weights``, with distinct random compositions."""
    terms: dict[tuple, Fraction] = {}
    for w in weights:
        c = random_composition(rng, w)
        while c in terms:
            c = random_composition(rng, w)
        terms[c] = random_rational(rng)
    return sorted(terms.items())


def _records(terms) -> list:
    return [[list(c), str(q)] for c, q in terms]


# ---------------------------------------------------------------------------
# cold-morphism: one `mzhopf` CLI run per op, in a fresh process


#: Output formats of the weight-10 matrix, one per pair of passes in turn.
#: Rotating by pass rather than by seed keeps the first two passes' peak RSS
#: (the table is the largest output) the same for every seed, and a traced
#: run's untraced pass 0 and traced pass 1 do the same work.
_W10_FORMATS = ("table", "csv", "json")

_PSI_WEIGHTS = (10, 11, 12)


def _psi_plan() -> tuple:
    """Depths of the three terms of each psi input.  The cost of psi follows
    the depths, so they are the same for every seed; they are drawn once, as
    a uniform composition's depth would be."""
    rng = random.Random("cold-morphism:plan")
    return tuple(tuple(1 + sum(rng.random() < 0.5 for _ in range(w - 1)) for w in _PSI_WEIGHTS)
                 for _ in range(16))


_PSI_DEPTHS = _psi_plan()


def _cold_pass(rng: random.Random, p: int) -> list[dict]:
    """16 psi, 6 psi-inv and 4 matrix runs.  Cost is set by the weights,
    depths and term counts, which are fixed; the seed picks compositions and
    scalars.  Weight 11 stays out of matrix and psi-inv: one such run takes
    ~6.5 s, too much of a pass that must repeat within one run."""
    ops: list[dict] = []
    for depths in _PSI_DEPTHS:
        terms = sorted((composition_of_depth(rng, w, d), random_rational(rng))
                       for w, d in zip(_PSI_WEIGHTS, depths))
        # "--" because an expression may start with a minus sign
        ops.append({"kind": "psi", "argv": ["psi", "--", element_text(terms)],
                    "expect": {"terms": _records(terms)}})
    for weight in (9, 9, 9, 9, 9, 10):
        terms = random_element(rng, (weight, weight))
        ops.append({"kind": "psi-inv", "argv": ["psi-inv", "--", element_text(terms)],
                    "expect": {"terms": _records(terms), "weight": weight}})
    fmts = [(9, "table"), (9, "csv"), (9, "json"), (10, _W10_FORMATS[p // 2 % 3])]
    for weight, fmt in fmts:
        ops.append({"kind": "matrix",
                    "argv": ["matrix", "--weight", str(weight), "--format", fmt],
                    "expect": {"weight": weight, "format": fmt}})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# warm-algebra: one long library session


#: (form, expressions per pass, factor depth caps, terms per factor).  The
#: depth caps keep every stuffle of two basis elements below D(4, 4) = 321
#: terms, so the product caches stay within a few hundred MB over a run.
_FORMS = (
    ("sh", 400, (9, 9), 5),
    ("st", 400, (4, 4), 5),
    ("shst", 200, (2, 2, 3), 3),
)
_AUX_KINDS = ("coproduct", "shuffle_antipode", "quasi_antipode")
#: Enough pooled compositions per slot that the pool's own cost averages out
#: across seeds, few enough that pooled pairs recur in every pass.
_POOL_PER_SLOT = 8


def _warm_plan() -> list[tuple]:
    """The fixed mix of one pass: (form, [(weight, depth, terms), ...]).

    It is the same for every seed and pass, so the cost of a pass depends
    on the seed only through which compositions fill each slot.  Depths are
    drawn as a uniform composition's would be, then capped.
    """
    rng = random.Random("warm-algebra:plan")
    plan = []
    for form, count, depth_caps, max_terms in _FORMS:
        for _ in range(count):
            total = rng.randint(8, 14)
            while True:
                weights = list(composition_of_depth(rng, total, len(depth_caps)))
                if min(weights) >= 2 and max(weights) <= 9:
                    break
            slots = []
            for w, cap in zip(weights, depth_caps):
                d = min(cap, 1 + sum(rng.random() < 0.5 for _ in range(w - 1)))
                slots.append((w, d, min(rng.randint(2, max_terms), math.comb(w - 1, d - 1))))
            plan.append((form, slots))
    return plan


_WARM_PLAN = _warm_plan()


@functools.lru_cache(maxsize=None)
def _warm_pool(seed: int) -> dict[tuple, list]:
    """A few reused compositions per (weight, depth) slot of the plan."""
    rng = _rng("warm-algebra", seed, "pool")
    slots = sorted({slot[:2] for _, factors in _WARM_PLAN for slot in factors})
    return {(w, d): [composition_of_depth(rng, w, d) for _ in range(_POOL_PER_SLOT)]
            for w, d in slots}


def _factor(rng: random.Random, pool: dict, weight: int, depth: int, n_terms: int) -> list:
    """Homogeneous factor of distinct terms; even-numbered terms come from
    the pool, odd-numbered ones are fresh (or the pool's are taken)."""
    terms: dict[tuple, Fraction] = {}
    for i in range(n_terms):
        c = rng.choice(pool[weight, depth]) if i % 2 == 0 else None
        while c is None or c in terms:
            c = composition_of_depth(rng, weight, depth)
        terms[c] = random_rational(rng)
    return sorted(terms.items())


def _warm_pass(rng: random.Random, pool: dict) -> list[dict]:
    exprs = [(form, [_factor(rng, pool, *slot) for slot in slots]) for form, slots in _WARM_PLAN]
    rng.shuffle(exprs)
    ops: list[dict] = []
    for i, (form, factors) in enumerate(exprs):
        # the grammar takes a sign only at the start of a sum, so each
        # factor is parenthesized
        t = [f"({element_text(f)})" for f in factors]
        if form == "shst":
            src = f"({t[0]} sh {t[1]}) st {t[2]}"
        else:
            src = f"{t[0]} {form} {t[1]}"
        ops.append({"kind": "expr", "src": src,
                    "expect": {"form": form, "factors": [_records(f) for f in factors]}})
        # one op on a factor after every second expression keeps expressions
        # two thirds of the ops, so the median op is an expression
        if i % 2:
            ops.append({"kind": _AUX_KINDS[(i // 2) % 3], "terms": _records(rng.choice(factors))})
    return ops


# ---------------------------------------------------------------------------
# zeta-sweep: truncated multiple zeta values in one library session

#: (depth, smaller cutoff, larger cutoff) per composition of a pass; each
#: composition is evaluated at both cutoffs so monotonicity can be checked.
_ZETA_PLAN = (
    (1, 100_000, 2_000_000),
    (2, 200_000, 1_000_000),
    (2, 100_000, 500_000),
    (3, 300_000, 2_000_000),
    (3, 100_000, 1_000_000),
    (4, 200_000, 500_000),
    (4, 100_000, 2_000_000),
    (5, 300_000, 1_000_000),
    (6, 100_000, 500_000),
    (6, 200_000, 1_000_000),
)

#: Compositions of each depth whose value has a closed form, so the oracle
#: can pin them from both sides: (2,{1}^m) = zeta(m+2) by duality, (3,1) and
#: {2}^k.  Depth one is always closed.
_ZETA_CLOSED = {
    2: ((2, 1), (3, 1), (2, 2)),
    3: ((2, 1, 1), (2, 2, 2)),
    4: ((2, 1, 1, 1), (2, 2, 2, 2)),
    5: ((2, 1, 1, 1, 1), (2, 2, 2, 2, 2)),
    6: ((2, 1, 1, 1, 1, 1), (2, 2, 2, 2, 2, 2)),
}

#: Every pass repeats the plan this many times and adds as many stuffle and
#: shuffle products, evaluated at a small cutoff.
_ZETA_REPEATS = 8
_PRODUCTS = 6
_PRODUCT_TERMS = 20_000


def _zeta_pass(rng: random.Random, p: int) -> list[dict]:
    ops: list[dict] = []
    # Cutoffs are offset per pass and slot, so no (composition, cutoff) pair
    # repeats within a run and the evaluator's cache never hits; the offsets
    # stay below 100_000 for fewer than MAX_PASSES passes, so the ranges of
    # the plan's two cutoffs and of the products never meet.
    for r in range(_ZETA_REPEATS):
        for i, (depth, lo, hi) in enumerate(_ZETA_PLAN):
            if depth > 1 and rng.random() < 0.5:
                comp = rng.choice(_ZETA_CLOSED[depth])
            else:
                comp = random_admissible(rng, rng.randint(depth + 1, depth + 4), depth)
            offset = p * 1000 + r * len(_ZETA_PLAN) + i
            for terms in (lo + offset, hi + offset):
                ops.append({"kind": "zeta", "comp": list(comp), "terms": terms,
                            "pair": f"{r}.{i}"})
        for j in range(_PRODUCTS):
            da, db = rng.randint(1, 2), rng.randint(1, 2)
            a = random_admissible(rng, rng.randint(da + 1, da + 3), da)
            b = random_admissible(rng, rng.randint(db + 1, db + 3), db)
            for k, product in enumerate(("stuffle", "shuffle")):
                terms = _PRODUCT_TERMS + p * 500 + 2 * (r * _PRODUCTS + j) + k
                ops.append({"kind": "eval_product", "product": product,
                            "a": list(a), "b": list(b), "terms": terms})
    # Not shuffled: the same sequence of array sizes in every run keeps the
    # allocator's reuse of freed arrays, and so the peak RSS, the same.
    return ops


# ---------------------------------------------------------------------------
# verify-suites: one `mzhopf verify --suite S` run per op, in a fresh process


def _verify_pass(rng: random.Random, p: int) -> list[dict]:
    suites = list(SUITES)
    rng.shuffle(suites)
    ops = []
    for s in suites:
        argv = ["verify", "--suite", s]
        if s in SUITE_CAPS:
            argv += ["--max-weight", str(SUITE_CAPS[s])]
        ops.append({"kind": "verify", "argv": argv, "expect": {"suite": s}})
    return ops


# ---------------------------------------------------------------------------


def pass_ops(workload: str, seed: int, p: int) -> list[dict]:
    """The op list of pass ``p`` of a run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if not 0 <= p < MAX_PASSES:
        raise ValueError(f"pass {p} is outside 0..{MAX_PASSES - 1}")
    rng = _rng(workload, seed, p)
    if workload == "cold-morphism":
        ops = _cold_pass(rng, p)
    elif workload == "warm-algebra":
        # Every pass repeats pass 0's session: pass 0 meets its products
        # cold, later passes find them cached.  Fresh inputs in every pass
        # would grow the product caches, and the RSS, for as long as a run
        # lasts, and make later passes faster than earlier ones.
        ops = _warm_pass(_rng(workload, seed, 0), _warm_pool(seed))
    elif workload == "zeta-sweep":
        ops = _zeta_pass(rng, p)
    else:
        ops = _verify_pass(rng, p)
    for i, op in enumerate(ops):
        op["id"] = f"{p}.{i}"
    return ops
