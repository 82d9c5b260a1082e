"""Per-layer tracing from outside the library.

``Tracer.install()`` wraps the public functions of each samfilt module in
a span that counts the call and measures its time.  A function is often
imported by name into other modules (``from ._linprog import
simplex_max`` in ``monomial``), so every binding of the function object
in every loaded samfilt module is replaced, not only the one in the
defining module.  Methods are wrapped on their class.  ``uninstall()``
restores every binding.

A span's self time is its duration minus the time of the spans it
encloses; the self times of spans with the same key are summed.  Spans
are folded into these sums as they close, so memory stays flat however
many calls a round makes.
"""

from __future__ import annotations

import sys
import time

_ns = time.perf_counter_ns

EXACT_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__",
    "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
)

# (module, attribute, span key, counters bumped per call, extra counter)
FUNCTIONS = [
    ("samfilt._kernels", "reduce_antichain", "kernels.reduce_antichain",
     ("kernels.reduce_antichain.calls",), "antichain"),
    ("samfilt._kernels", "any_le", "kernels.any_le", ("kernels.any_le.calls",), None),
    ("samfilt._kernels", "staircase_gens_2d", "kernels.staircase_gens_2d",
     ("kernels.staircase_gens_2d.calls",), None),
    ("samfilt._kernels", "colength_2d", "kernels.colength_2d", ("kernels.colength_2d.calls",), None),
    ("samfilt._kernels", "prefix_union_count_2d", "kernels.prefix_union_count_2d",
     ("kernels.prefix_union_count_2d.calls",), None),
    ("samfilt.valuation", "system_level", "valuation.system_level",
     ("valuation.system_level.calls",), None),
    ("samfilt.monomial", "np_value", "monomial.np_value", ("monomial.np_value.calls",), None),
    ("samfilt.monomial", "integral_closure", "monomial.closure", ("monomial.closure.calls",), None),
    ("samfilt.monomial", "np_threshold_level", "monomial.closure", ("monomial.closure.calls",), None),
    ("samfilt.filtration", "filtration_from_json", "filtration.from_json",
     ("filtration.from_json.calls",), None),
    ("samfilt._linprog", "simplex_max", "linprog", ("linprog.solves",), "tableau"),
    ("samfilt._linprog", "lp_min", "linprog", (), None),
    ("samfilt._linprog", "strict_cone_margin", "linprog", (), None),
    ("samfilt.exactnum", "parse_scalar", "exactnum", ("exactnum.scalar_io.calls",), None),
    ("samfilt.exactnum", "format_scalar", "exactnum", ("exactnum.scalar_io.calls",), None),
    ("samfilt.cli", "main", "cli", ("cli.calls",), None),
]
for _name in ("nubar", "nubar_estimate", "k_filtration", "ic_filtration",
              "rees_graded_integral_1var", "rees_integral_witness_1var"):
    FUNCTIONS.append(("samfilt.samuel", _name, "samuel", ("samuel.calls",), None))
for _name in ("make_irredundant", "projectively_equivalent", "recover_valuations"):
    FUNCTIONS.append(("samfilt.equivalence", _name, "equivalence", ("equivalence.calls",), None))
for _name in ("multiplicity_exact", "multiplicity_estimate", "filtration_value", "saturation_check"):
    FUNCTIONS.append(("samfilt.multiplicity", _name, "multiplicity", ("multiplicity.calls",), None))
FUNCTIONS.append(("samfilt.multiplicity", "colength", "multiplicity",
                  ("multiplicity.calls", "multiplicity.colength.calls"), None))

# every counter and self-time key the traced run reports, in report order
COUNTERS = (
    "kernels.reduce_antichain.calls", "kernels.reduce_antichain.points_in",
    "kernels.reduce_antichain.points_out", "kernels.any_le.calls",
    "kernels.staircase_gens_2d.calls", "kernels.colength_2d.calls",
    "kernels.prefix_union_count_2d.calls", "valuation.system_level.calls",
    "monomial.ideal_new.calls", "monomial.ideal_new.gens_in", "monomial.ideal_new.gens_out",
    "monomial.np_value.calls", "monomial.closure.calls",
    "filtration.level.calls", "filtration.level.built", "filtration.order.calls",
    "filtration.from_json.calls", "linprog.solves", "linprog.tableau_cells",
    "exactnum.ops", "exactnum.scalar_io.calls", "samuel.calls",
    "equivalence.calls", "equivalence.oracle_evals", "multiplicity.calls",
    "multiplicity.colength.calls", "cli.calls",
)
SELF_KEYS = (
    "kernels.reduce_antichain", "kernels.any_le", "kernels.staircase_gens_2d",
    "kernels.colength_2d", "valuation.system_level", "monomial.ideal_new",
    "monomial.np_value", "monomial.closure", "filtration.level", "filtration.order",
    "filtration.from_json", "linprog", "exactnum", "samuel", "equivalence",
    "multiplicity", "cli",
)


def _samfilt_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "samfilt" or name.startswith("samfilt."))]


class Tracer:
    def __init__(self):
        self._undo = []
        self.reset()

    def reset(self):
        self.counts = {}
        self.self_ns = {}
        self._stack = [[0]]  # child time of the open spans, root first

    # -- wrappers ------------------------------------------------------

    def _span(self, fn, key, counters, extra):
        counts = self.counts
        self_ns = self.self_ns
        stack = self._stack

        def wrapper(*args, **kwargs):
            for c in counters:
                counts[c] = counts.get(c, 0) + 1
            if extra == "tableau":  # simplex_max(c, A, b): m rows, n + m + 1 columns
                m = len(args[1])
                counts["linprog.tableau_cells"] = counts.get("linprog.tableau_cells", 0) + m * (len(args[0]) + m + 1)
            elif extra == "antichain":
                pts = args[0] if isinstance(args[0], list) else list(args[0])
                args = (pts,) + args[1:]
                counts["kernels.reduce_antichain.points_in"] = (
                    counts.get("kernels.reduce_antichain.points_in", 0) + len(pts))
            frame = [0]
            stack.append(frame)
            t0 = _ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = _ns() - t0
                stack.pop()
                self_ns[key] = self_ns.get(key, 0) + dur - frame[0]
                stack[-1][0] += dur
            if extra == "antichain":
                counts["kernels.reduce_antichain.points_out"] = (
                    counts.get("kernels.reduce_antichain.points_out", 0) + len(out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _ideal_init(self, fn):
        counts = self.counts
        inner = self._span(fn, "monomial.ideal_new", ("monomial.ideal_new.calls",), None)

        def init(obj, n, gens):
            gens = gens if isinstance(gens, list) else list(gens)
            counts["monomial.ideal_new.gens_in"] = counts.get("monomial.ideal_new.gens_in", 0) + len(gens)
            inner(obj, n, gens)
            counts["monomial.ideal_new.gens_out"] = counts.get("monomial.ideal_new.gens_out", 0) + len(obj.gens)

        return init

    def _level(self, fn):
        counts = self.counts
        inner = self._span(fn, "filtration.level", ("filtration.level.calls",), None)

        def level(obj, m):
            cache = getattr(obj, "_cache", None)
            if cache is None or m not in cache:
                counts["filtration.level.built"] = counts.get("filtration.level.built", 0) + 1
            return inner(obj, m)

        return level

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -------------------------------------------

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every binding; the counters of the previous round are reset."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.reset()
        mods = _samfilt_modules()
        loaded = {m.__name__: m for m in mods}
        for modname, attr, key, counters, extra in FUNCTIONS:
            mod = loaded.get(modname)
            if mod is None:
                continue  # e.g. samfilt.cli outside the CLI workload
            orig = getattr(mod, attr)
            wrapped = self._span(orig, key, counters, extra)
            for m in mods:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, name, wrapped)
        from samfilt.equivalence import OmegaOracle
        from samfilt.exactnum import ExactReal
        from samfilt.filtration import Filtration
        from samfilt.monomial import MonomialIdeal

        self._set(MonomialIdeal, "__init__", self._ideal_init(MonomialIdeal.__init__))
        self._set(Filtration, "level", self._level(Filtration.level))
        engines = [Filtration]
        todo = list(Filtration.__subclasses__())
        while todo:
            cls = todo.pop()
            engines.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in engines:
            if "order" in vars(cls):
                self._set(cls, "order", self._span(vars(cls)["order"], "filtration.order",
                                                   ("filtration.order.calls",), None))
        for op in EXACT_OPS:
            if op in vars(ExactReal):
                self._set(ExactReal, op, self._span(vars(ExactReal)[op], "exactnum", ("exactnum.ops",), None))
        self._set(OmegaOracle, "__call__", self._counter(OmegaOracle.__call__, "equivalence.oracle_evals"))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        if len(self._stack) != 1:
            raise RuntimeError("unbalanced spans: %d left open" % (len(self._stack) - 1))

    def snapshot(self):
        """Every counter (0 when never bumped) and every self time in ms."""
        out = {name: self.counts.get(name, 0) for name in COUNTERS}
        for key in SELF_KEYS:
            out[key + ".self_ms"] = self.self_ns.get(key, 0) / 1e6
        return out
