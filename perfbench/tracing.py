"""Spans around mzhopf's public functions, recorded from the benchmark's side.

``install`` wraps every public function in the ``__all__`` of the nine
modules (or, for the two modules without ``__all__``, every public function
they define), the ``Element`` arithmetic operators and the two text
renderings of ``GradedMatrix``.  Each wrapper is rebound in every mzhopf
module namespace that holds the original object, so calls between modules
are seen as well.  Helpers called once per term (the word codec, sort keys,
``coerce_coeff``) stay unwrapped: a span per term would cost more than the
work it times.

While ``Tracer.active`` is set, every wrapped call appends one span: name,
start, end, parent span and op id.  Spans live in flat arrays until the run
ends.  ``self_times`` subtracts from each span the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

MODULES = (
    "compositions",
    "elements",
    "shuffle_algebra",
    "quasi_shuffle",
    "morphisms",
    "numeric",
    "expressions",
    "cli",
    "verify",
)

_PER_TERM = {"encode_word", "decode_word", "order_cmp", "order_key", "serial_key", "coerce_coeff"}
_ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scaled", "__truediv__", "__eq__")
_RENDER = ("to_table", "to_csv")

#: Bytes of float64 arrays the dense zeta DP writes per cell: the powers,
#: the shifted accumulator, their product and its cumulative sum.
DP_BYTES_PER_CELL = 32


class Tracer:
    """Flat span store; one instance per process."""

    def __init__(self):
        self.active = False
        self.capture = False  # keep product operands for working_sets
        self.op_id = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.count = array("q")  # terms out, or DP cells for zeta_truncated
        self.products: list[tuple[str, list, list]] = []  # operand keys of sh/st
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name, fn, counter=None, label=None, capture=False):
        """Wrapper that records a span per call while the tracer is active.

        ``label(args)`` names the span per call instead of ``name``;
        ``counter(args, kwargs, result)`` fills the span's count;
        ``capture`` keeps the operands' term keys for the working-set count.
        """
        fixed = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nid = fixed if label is None else tracer.name_id(label(args))
            stack = tracer._stack
            i = len(tracer.start)
            depth = tracer._depth.get(nid, 0)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.nested.append(1 if depth else 0)
            tracer.count.append(0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._depth[nid] = depth + 1
            stack.append(i)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._depth[nid] = depth
                tracer.start[i] = t0
                tracer.end[i] = t1
            if counter is not None:
                tracer.count[i] = counter(args, kwargs, result)
            if capture and tracer.capture:
                tracer.products.append((name, _keys(args[0]), _keys(args[1])))
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def spans(self) -> dict:
        return {
            "names": list(self.names),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "nested": self.nested.tolist(),
            "count": self.count.tolist(),
        }


def _keys(x) -> list:
    terms = getattr(x, "_terms", None)
    return list(terms) if terms is not None else [tuple(x)]


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _public(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items()
                 if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == mod.__name__]
    return list(names)


def install(tracer: Tracer) -> list[tuple]:
    """Wrap, rebind and activate; returns what ``uninstall`` puts back."""
    import mzhopf.cli  # noqa: F401  (imports every module of the package)

    numeric = sys.modules["mzhopf.numeric"]

    def zeta_cells(args, kwargs, result) -> int:
        config = args[1] if len(args) > 1 else kwargs.get("config", numeric.DEFAULT_CONFIG)
        return len(tuple(args[0])) * config.terms

    counters = {
        "shuffle_algebra.shuffle": _len_result,
        "quasi_shuffle.stuffle": _len_result,
        "morphisms.induced_morphism_fast": _len_result,
        "numeric.zeta_truncated": zeta_cells,
    }
    wrapped: dict[int, tuple] = {}
    for modname in MODULES:
        mod = sys.modules[f"mzhopf.{modname}"]
        for attr in _public(mod):
            obj = getattr(mod, attr)
            if (attr in _PER_TERM or not inspect.isfunction(obj)
                    or inspect.isgeneratorfunction(obj)):
                continue
            name = f"{modname}.{attr}"
            label = (lambda args: f"verify.{args[0]}") if name == "verify.run_suite" else None
            capture = name in ("shuffle_algebra.shuffle", "quasi_shuffle.stuffle")
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj, counters.get(name), label, capture))
    restore = []
    for modname, mod in list(sys.modules.items()):
        if modname == "mzhopf" or modname.startswith("mzhopf."):
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
    element = sys.modules["mzhopf.elements"].Element
    matrix = sys.modules["mzhopf.morphisms"].GradedMatrix
    for cls, meths, name in ((element, _ARITH, "elements.arith"),
                             (matrix, _RENDER, "morphisms.GradedMatrix.{}")):
        for meth in meths:
            original = cls.__dict__[meth]
            restore.append((cls, meth, original))
            setattr(cls, meth, tracer.wrap(name.format(meth), original))
    tracer.active = True
    return restore


def uninstall(tracer: Tracer, restore: list[tuple]) -> None:
    tracer.active = False
    for owner, attr, original in restore:
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(n):
        covered = 0.0
        reach = start[i]
        for c in sorted(children[i], key=start.__getitem__):
            lo = max(start[c], reach)
            hi = min(end[c], end[i])
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(end[i] - start[i] - covered)
    return out


_FIELDS = ("name", "start", "end", "parent", "op", "nested", "count")


def merge(parts: list[dict]) -> dict:
    """One span table from the tables of several processes."""
    out: dict = {"names": [], **{k: [] for k in _FIELDS}}
    ids: dict[str, int] = {}
    for part in parts:
        base = len(out["start"])
        remap = [ids.setdefault(n, len(ids)) for n in part["names"]]
        out["names"] = list(ids)
        out["name"] += [remap[i] for i in part["name"]]
        out["parent"] += [p + base if p >= 0 else -1 for p in part["parent"]]
        for k in ("start", "end", "op", "nested", "count"):
            out[k] += part[k]
    return out


def subset(spans: dict, keep: list[int]) -> dict:
    """The spans at the given indices; a parent outside them becomes a root."""
    new = {old: i for i, old in enumerate(keep)}
    out = {"names": spans["names"], **{k: [spans[k][i] for i in keep] for k in _FIELDS}}
    out["parent"] = [new.get(p, -1) for p in out["parent"]]
    return out


def layer_stats(spans: dict) -> dict[str, float]:
    """Aggregate spans into ``<module>.{calls,self_s}`` and ``<span name>.
    {calls,self_s,total_s,terms_out}``; ``total_s`` counts only spans without
    a same-named ancestor, so recursion is not counted twice."""
    selves = self_times(spans["start"], spans["end"], spans["parent"])
    out: dict[str, float] = {}

    def add(key, v):
        out[key] = out.get(key, 0) + v

    for i, nid in enumerate(spans["name"]):
        name = spans["names"][nid]
        module = name.split(".", 1)[0]
        add(f"{module}.calls", 1)
        add(f"{module}.self_s", selves[i])
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", selves[i])
        add(f"{name}.terms_out", spans["count"][i])
        if not spans["nested"][i]:
            add(f"{name}.total_s", spans["end"][i] - spans["start"][i])
    cells = out.get("numeric.zeta_truncated.terms_out", 0)
    out["numeric.zeta_truncated.dp_ops"] = cells
    out["numeric.zeta_truncated.bytes_computed"] = DP_BYTES_PER_CELL * cells
    return out


def _word(c) -> str:
    return "".join("0" * (p - 1) + "1" for p in c)


def working_sets(products) -> dict[str, int]:
    """Distinct sub-problems the product caches must hold for every captured
    shuffle and stuffle to hit: all pairs of suffixes of the operands'
    words (shuffle) or compositions (stuffle), unordered."""
    sets: dict[str, set] = {"shuffle_algebra.shuffle": set(), "quasi_shuffle.stuffle": set()}
    for name, left, right in products:
        seen = sets[name]
        encode = _word if name == "shuffle_algebra.shuffle" else tuple
        for x in left:
            for y in right:
                a, b = encode(x), encode(y)
                for i in range(len(a) + 1):
                    for j in range(len(b) + 1):
                        u, v = a[i:], b[j:]
                        seen.add((u, v) if u <= v else (v, u))
    return {f"{name}.working_set": len(s) for name, s in sets.items()}
