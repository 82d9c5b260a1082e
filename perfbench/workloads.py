"""The three workloads: seeded inputs, the query list of one round, and
the check of every answer against ``reference``.

A workload is built once per process by ``build(name, seed, workdir)``.
Each round then runs the same list of queries against fresh engines
parsed from the JSON documents, so no round profits from the level
caches or order memos filled by an earlier one.  A query is one library
call, one sweep of one call over a short list of monomials or
valuations, or one CLI invocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

import samfilt

import families as fam
import reference as ref


class Query:
    """One timed call.  ``run(ctx)`` returns the output; ``check(out)``
    raises AssertionError when the output is wrong."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class Round:
    """Per-round state: engines parsed on first use, shared results."""

    def __init__(self, docs):
        self._docs = docs
        self._engines = {}
        self.results = {}

    def fresh(self, key):
        """A new engine with empty caches, not shared with other queries."""
        return samfilt.filtration_from_json(self._docs[key])

    def engine(self, key):
        F = self._engines.get(key)
        if F is None:
            F = samfilt.filtration_from_json(self._docs[key])
            self._engines[key] = F
        return F


def expect(cond, msg):
    if not cond:
        raise AssertionError(msg)


def ideal_gens(I) -> set:
    return {tuple(g) for g in I.gens}


def mono(e):
    return samfilt.SupportPoly.monomial(e)


# -- lattice_levels ----------------------------------------------------

DV2 = [((1, 2), Fraction(1)), ((2, 1), Fraction(1))]
DV3 = [((1, 1, 2), Fraction(1)), ((2, 1, 1), Fraction(1))]
ADIC_GENS = [(2, 0), (0, 3)]
DV2_N = 1000
DV3_N = 36
CHAIN_N = (50, 200, 400)


def _check_series(out, n_max, d, colength_of):
    est, series = out
    expect(series.d == d, "series dimension")
    for n, c in series.samples:
        want = colength_of(n)
        expect(c == want, "colength at n=%d: got %d, expected %d" % (n, c, want))
    expect(series.samples[-1][0] == n_max, "last sample is not n_max")
    want = Fraction(colength_of(n_max) * (2 if d == 2 else 6), n_max**d)
    expect(est == want, "estimate %s, expected %s" % (est, want))


def _dv_colength(pairs):
    return lambda n: ref.union_of_prefixes_colength(ref.dv_level_rows(pairs, n))


def _adic_colength(n):
    return ref.adic_pure_power_colength(2, 3, n)


def _k_colength(n):
    return ref.union_of_prefixes_colength([((3, 2), 6 * n)])


def _dv_level_value(pairs, v, n):
    rows = ref.dv_level_rows(pairs, n)
    gens = ref.minimal_points(ref.rows_box(rows), ref.rows_member(rows))
    return min(ref.dot(v, g) for g in gens)


def _running_inf(values):
    """(min over n of values[n]/n, first n attaining it), n from 1."""
    best, best_n = None, 1
    for n, val in enumerate(values, start=1):
        cur = Fraction(val, n)
        if best is None or cur < best:
            best, best_n = cur, n
    return best, best_n


def _value_expectation(kind, v, n_max):
    """(exact limit, running inf of v(I_n)/n, its first n) for one engine."""
    if kind == "adic":
        lim = Fraction(min(ref.dot(v, g) for g in ADIC_GENS))
        return lim, lim, 1
    if kind == "dv2":
        vals = [_dv_level_value(DV2, v, n) for n in range(1, n_max + 1)]
        return ref.dv_value_limit(DV2, v), *_running_inf(vals)
    vals = [_dv_level_value(DV3, v, n) for n in range(1, n_max + 1)]
    return ref.dv_value_limit(DV3, v), *_running_inf(vals)


def _check_value(kind, v, n_max):
    def check(res):
        exact, upper, upper_n = _value_expectation(kind, v, n_max)
        expect(ref.rational(res.exact) == exact, "value limit of %s" % (v,))
        expect(ref.rational(res.upper) == upper, "running inf of %s" % (v,))
        expect(res.upper_n == upper_n, "running inf index of %s" % (v,))

    return check


def _adic_power_gens(n):
    return {(2 * i, 3 * (n - i)) for i in range(n + 1)}


def _check_saturation(kind, vals, n_max):
    def check(rep):
        ws = [tuple(v.w) for v in rep.valuations]
        want_ws = list(vals)
        pairs = DV2 if kind == "dv2" else DV3
        if kind != "adic":
            want_ws += [w for w, _ in pairs if w not in want_ws]
        expect(ws == want_ws, "saturation valuations %s" % (ws,))
        limits = []
        for w, a in zip(ws, rep.values):
            want = _value_expectation(kind, w, n_max)[0]
            expect(ref.rational(a) == want, "saturation value of %s" % (w,))
            limits.append(want)
        expect(len(rep.rows) == n_max, "saturation row count")
        for row in rep.rows:
            rows = [(w, ref.ceil_frac(a * row.n)) for w, a in zip(ws, limits) if a > 0]
            want_sat = ref.minimal_points(ref.rows_box(rows), ref.rows_member(rows))
            expect(ideal_gens(row.sat) == want_sat, "Sat_%d generators" % row.n)
            expect(row.contained, "level %d not inside Sat_%d" % (row.n, row.n))
            if kind == "adic":
                expect(row.equal == (want_sat == _adic_power_gens(row.n)), "equal flag")
            else:
                expect(row.equal, "DV level %d differs from Sat_%d" % (row.n, row.n))

    return check


def _order_expectation(kind, e):
    if kind == "adic":
        return e[0] // 2 + e[1] // 3
    if kind == "K":
        return (3 * e[0] + 2 * e[1]) // 6
    pairs = DV2 if kind == "dv2" else DV3
    return int(ref.omega(pairs, e))  # floor of a nonnegative rational


def _check_orders(kind, monos):
    def check(got):
        for e, val in zip(monos, got):
            want = _order_expectation(kind, e)
            expect(val == want, "order of %s along %s: %r, expected %d" % (e, kind, val, want))

    return check


def _check_k_levels(ms):
    def check(K):
        expect(K.horizon == CHAIN_N[-1], "k_filtration horizon")
        for m in ms:
            rows = [((3, 2), 6 * m)]
            want = ref.minimal_points(ref.rows_box(rows), ref.rows_member(rows))
            expect(ideal_gens(K.level(m)) == want, "K_%d generators" % m)

    return check


def build_lattice_levels(seed, workdir):
    rng = random.Random(seed)
    docs = {
        "dv2": fam.dv_doc(DV2),
        "dv3": fam.dv_doc(DV3),
        "adic": fam.adic_doc(ADIC_GENS),
    }
    vals2 = [tuple(rng.randint(1, 5) for _ in range(2)) for _ in range(10)]
    vals3 = [tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(3)]
    # six fixed corners, one per residue class mod (2, 3), bound the Adic
    # order memo, so its size does not depend on the seed
    monos2 = [(200 - i % 2, 225 - i % 3) for i in range(6)]
    monos2 += [(rng.randint(0, 200), rng.randint(0, 225)) for _ in range(6)]
    small2 = [(rng.randint(0, 60), rng.randint(0, 90)) for _ in range(12)]
    monos3 = [tuple(rng.randint(0, 60) for _ in range(3)) for _ in range(12)]
    k_checked = sorted({1, 2, 3} | {rng.randint(4, 40) for _ in range(2)})

    def est(key, n):
        return lambda r: samfilt.multiplicity_estimate(r.engine(key), n)

    def est_k(n):
        return lambda r: samfilt.multiplicity_estimate(r.results["K"], n)

    def kfilt(r):
        K = samfilt.k_filtration(r.engine("adic"), CHAIN_N[-1])
        r.results["K"] = K
        return K

    def value(key, v, n_max):
        return lambda r: samfilt.filtration_value(samfilt.MonomialValuation(v), r.fresh(key), n_max)

    def orders(key, monos):
        def run(r):
            F = r.results["K"] if key == "K" else r.engine(key)
            return [F.order(mono(e)) for e in monos]

        return run

    def sat(key, vals, n_max):
        return lambda r: samfilt.saturation_check(r.fresh(key), vals, n_max)

    qs = [
        Query("estimate dv2 n=%d" % DV2_N, est("dv2", DV2_N),
              lambda out: _check_series(out, DV2_N, 2, _dv_colength(DV2))),
        Query("estimate dv3 n=%d" % DV3_N, est("dv3", DV3_N),
              lambda out: _check_series(out, DV3_N, 3, _dv_colength(DV3))),
        Query("k_filtration adic %d" % CHAIN_N[-1], kfilt, _check_k_levels(k_checked)),
    ]
    for n in CHAIN_N:
        qs.append(Query("estimate adic n=%d" % n, est("adic", n),
                        lambda out, n=n: _check_series(out, n, 2, _adic_colength)))
        qs.append(Query("estimate K n=%d" % n, est_k(n),
                        lambda out, n=n: _check_series(out, n, 2, _k_colength)))
    for v in vals2:
        qs.append(Query("value adic %s" % (v,), value("adic", v, 40), _check_value("adic", v, 40)))
        qs.append(Query("value dv2 %s" % (v,), value("dv2", v, 40), _check_value("dv2", v, 40)))
    for v in vals3:
        qs.append(Query("value dv3 %s" % (v,), value("dv3", v, 12), _check_value("dv3", v, 12)))
    qs += [
        Query("saturation adic", sat("adic", vals2[:2], 20), _check_saturation("adic", vals2[:2], 20)),
        Query("saturation dv2", sat("dv2", vals2[2:3], 20), _check_saturation("dv2", vals2[2:3], 20)),
        Query("saturation dv3", sat("dv3", vals3[:1], 8), _check_saturation("dv3", vals3[:1], 8)),
        Query("orders adic", orders("adic", monos2), _check_orders("adic", monos2)),
        Query("orders K", orders("K", small2), _check_orders("K", small2)),
        Query("orders dv2", orders("dv2", monos2), _check_orders("dv2", monos2)),
        Query("orders dv3", orders("dv3", monos3), _check_orders("dv3", monos3)),
    ]
    return docs, qs


# -- polyhedral --------------------------------------------------------

I3_GENS = [(2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)]
CLOSURE_POWERS = (1, 2, 3)
K3_M = 2
NUBAR_SWEEPS = 48
RECOVER_DEGREE = 12
MULT_FIXED = [
    [((1, 1, 2), Fraction(1)), ((2, 1, 1), Fraction(1))],
    [((1, 1, 1), Fraction(1)), ((2, 1, 1), Fraction(1))],
    [((1, 1, 2), Fraction(1)), ((2, 1, 1), Fraction(1)), ((1, 3, 1), Fraction(2))],
    [((1, 1, 2), Fraction(1)), ((2, 1, 1), Fraction(1)), ((1, 3, 1), Fraction(2)), ((3, 2, 2), Fraction(3))],
]


def _check_closure(gens, t):
    def check(I):
        want = ref.closure_generators(gens, t)
        expect(ideal_gens(I) == want, "closure generators at t=%s" % t)

    return check


def _check_nubar_sweep(monos):
    def check(got):
        ineqs = ref.newton_inequalities(I3_GENS)
        for e, res in zip(monos, got):
            expect(res.kind == "exact", "nubar kind")
            want = ref.np_order(ineqs, e)
            expect(ref.rational(res.value) == want, "nubar of %s: expected %s" % (e, want))

    return check


def _check_k3(K):
    expect(K.horizon == K3_M, "k_filtration horizon")
    for m in range(1, K3_M + 1):
        _check_closure(I3_GENS, m)(K.level(m))


def _check_mult(pairs, surd):
    def check(val):
        d = len(pairs[0][0])
        if len(pairs) == 1:
            (w, a), = pairs
            e = Fraction(a) ** d / math.prod(w)
        else:
            e = ref.dv_multiplicity(pairs)
        if surd:  # every scale times sqrt(2) scales the volume by 2^(d/2)
            want = (Fraction(0), 2 * e, 2) if d == 3 else (4 * e, Fraction(0), 0)
        else:
            want = (e, Fraction(0), 0)
        expect(ref.scalar_parts(val) == want, "multiplicity %s, expected %s" % (ref.scalar_parts(val), want))

    return check


def _rep_pairs(rep):
    return {(tuple(v.w), ref.rational(a)) for v, a in rep.pairs}


def _check_irredundant(expected, pairs):
    """The essential pairs are known by construction; the grid search
    confirms that they, and only they, are ever the strict minimiser."""

    def check(rep):
        expect(ref.strict_minimizers(pairs, fam.GRID) == expected, "reference grid disagrees")
        expect(_rep_pairs(rep) == expected, "irredundant pairs %s" % (_rep_pairs(rep),))

    return check


def _scale_parts(scale, surd):
    return (Fraction(0), scale, 2) if surd else (scale, Fraction(0), 0)


def _check_equivalence(f_pairs, g_base, scale, surd, equivalent):
    def check(res):
        if equivalent:
            expect(res.alpha is not None, "expected equivalent")
            want = _scale_parts(scale, surd)
            expect(ref.scalar_parts(res.alpha) == want, "twist factor %s" % (ref.scalar_parts(res.alpha),))
        else:
            expect(res.alpha is None, "expected not equivalent")
            e = tuple(res.counterexample)
            expect(len(e) == len(f_pairs[0][0]) and all(isinstance(x, int) and x >= 0 for x in e),
                   "counterexample shape")
            expect(ref.is_counterexample(f_pairs, 1, g_base, scale, e), "not a counterexample: %s" % (e,))

    return check


def build_polyhedral(seed, workdir):
    rng = random.Random(seed)
    docs = {"adic3": fam.adic_doc(I3_GENS), "R2": fam.dv_doc(fam.RECOVER_2D), "R3": fam.dv_doc(fam.RECOVER_3D)}
    monos = [(rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 9)) for _ in range(NUBAR_SWEEPS * 8)]
    mult = [(pairs, False) for pairs in MULT_FIXED]
    mult.append((MULT_FIXED[0], True))
    mult.append(([(tuple(rng.randint(1, 4) for _ in range(3)), rng.choice(fam.SCALES))], False))
    for i, (pairs, surd) in enumerate(mult):
        docs["mult%d" % i] = fam.dv_doc(pairs, 2 if surd else 0)
    cases = []
    for i in range(8):
        n = 2 if i < 5 else 3
        equivalent = i % 2 == 0
        surd = i in (1, 2, 5)
        f_pairs, g_base, scale, expected = fam.equivalence_case(rng, n, 3 if n == 2 else 4, equivalent, surd)
        docs["F%d" % i] = fam.dv_doc(f_pairs)
        docs["G%d" % i] = fam.dv_doc([(w, a * scale) for w, a in g_base], 2 if surd else 0)
        cases.append((i, f_pairs, g_base, scale, surd, equivalent, expected))

    def closure(k):
        return lambda r: samfilt.integral_closure(r.engine("adic3").ideal ** k)

    def nubar_sweep(chunk):
        def run(r):
            A = r.engine("adic3")
            return [samfilt.nubar(A, mono(e)) for e in chunk]

        return run

    qs = [Query("closure I3^%d" % k, closure(k), _check_closure(I3_GENS, k)) for k in CLOSURE_POWERS]
    for j in range(0, len(monos), 8):
        chunk = monos[j : j + 8]
        qs.append(Query("nubar adic3 sweep %d" % (j // 8), nubar_sweep(chunk), _check_nubar_sweep(chunk)))
    qs.append(Query("k_filtration adic3 %d" % K3_M,
                    lambda r: samfilt.k_filtration(r.engine("adic3"), K3_M), _check_k3))
    for i, (pairs, surd) in enumerate(mult):
        qs.append(Query("multiplicity_exact mult%d" % i,
                        lambda r, i=i: samfilt.multiplicity_exact(r.engine("mult%d" % i)),
                        _check_mult(pairs, surd)))
    for i, f_pairs, g_base, scale, surd, equivalent, expected in cases:
        qs.append(Query("make_irredundant F%d" % i,
                        lambda r, i=i: samfilt.make_irredundant(r.engine("F%d" % i).pairs),
                        _check_irredundant(expected, f_pairs)))
        qs.append(Query("projectively_equivalent F%d G%d" % (i, i),
                        lambda r, i=i: samfilt.projectively_equivalent(r.engine("F%d" % i), r.engine("G%d" % i)),
                        _check_equivalence(f_pairs, g_base, scale, surd, equivalent)))
    for key, pairs in (("R2", fam.RECOVER_2D), ("R3", fam.RECOVER_3D)):
        qs.append(Query("recover_valuations %s degree %d" % (key, RECOVER_DEGREE),
                        lambda r, key=key: samfilt.recover_valuations(
                            samfilt.OmegaOracle.from_pairs(r.engine(key).pairs), RECOVER_DEGREE),
                        _check_irredundant(ref.primitive_pairs(pairs[:2]), pairs)))
    return docs, qs


# -- cli_session -------------------------------------------------------

SESSION_USERS = 6
CLI_RECOVER_DEGREE = 6
FAILING = (
    # Adic.level recurses once per level: level(1200) overflows the stack
    (["twist", "-f", "{adic_x}", "--alpha", "1200", "--m-max", "1", "--json"],
     {"command": "twist", "levels": [[1, {"n": 1, "gens": [[1200]]}]]}),
    # Adic._order_exponent recurses once per stripped generator
    (["nu", "-f", "{adic_xy}", "--monomial", "1200,0", "--json"],
     {"command": "nu", "kind": "finite", "value": 1200}),
)


class CliResult:
    __slots__ = ("code", "out", "err")

    def __init__(self, code, out, err):
        self.code = code
        self.out = out
        self.err = err


def run_cli(argv):
    """samfilt.cli.main(argv) in process, stdout and stderr captured."""
    from samfilt import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


_VALIDATORS = {}


def _validate(doc):
    import jsonschema
    from samfilt.schemas import SCHEMAS

    cmd = doc.get("command")
    expect(cmd in SCHEMAS, "unknown command in output: %r" % (cmd,))
    validator = _VALIDATORS.get(cmd)
    if validator is None:
        validator = jsonschema.Draft202012Validator(SCHEMAS[cmd])
        _VALIDATORS[cmd] = validator
    errors = sorted(validator.iter_errors(doc), key=str)
    expect(not errors, "schema violation for %s: %s" % (cmd, errors[:1]))


def _cli_check(json_mode, verify):
    """Exit 0, non-empty output; in --json mode one schema-valid document
    that ``verify`` accepts; in text mode ``verify`` gets the lines."""

    def check(res):
        expect(res.code == 0, "exit %r: %s" % (res.code, res.err.strip()))
        expect(res.out.strip(), "no output")
        if json_mode:
            doc = json.loads(res.out)
            _validate(doc)
            verify(doc)
        else:
            verify(res.out.splitlines())

    return check


def _expect_exit(code):
    def check(res):
        expect(res.code == code, "exit %r, expected %d" % (res.code, code))
        expect(not res.out.strip(), "malformed input printed a result")
        expect("Traceback" not in res.err, "traceback on stderr")

    return check


def _levels_of(doc):
    return {m: {tuple(g) for g in ideal["gens"]} for m, ideal in doc["levels"]}


def _user_files(rng, workdir, u):
    """Write one user's filtration files; return paths and expectations."""
    p, q = rng.randint(2, 4), rng.randint(2, 4)
    essentials = fam.essential_family(rng, 2, 2)
    dv_pairs = list(essentials)
    other = list(essentials)
    other[0] = (other[0][0], other[0][1] * 2)
    dv3_pairs = [(tuple(rng.randint(1, 3) for _ in range(3)), rng.choice(fam.SCALES)) for _ in range(2)]
    table_levels = []
    for m in (1, 2, 3):
        rows = ref.dv_level_rows(essentials, m)
        gens = sorted(ref.minimal_points(ref.rows_box(rows), ref.rows_member(rows)))
        table_levels.append([m, {"n": 2, "gens": [list(g) for g in gens]}])
    docs = {
        "adic": fam.adic_doc([(p, 0), (0, q)]),
        "dv": fam.dv_doc(dv_pairs),
        "dv_twin": fam.dv_doc([(w, a * Fraction(3, 2)) for w, a in essentials]),
        "dv_sqrt": fam.dv_doc(dv_pairs, 2),
        "dv_other": fam.dv_doc(other),
        "dv3": fam.dv_doc(dv3_pairs),
        "dv3_mult": fam.dv_doc(MULT_FIXED[u % 2]),
        "stair": {"type": "stair1", "alpha": "3/2", "c": 1},
        "twist": {"type": "twist", "alpha": "3/2", "base": fam.adic_doc([(p, 0), (0, q)])},
        "table": {"type": "table", "horizon": 3, "levels": table_levels},
        "recover": fam.dv_doc(fam.RECOVER_2D),
    }
    paths = {}
    for key, doc in docs.items():
        path = os.path.join(workdir, "u%d_%s.json" % (u, key))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[key] = path
    for key, text in (("invalid", '{"type": "adic", "ideal": '), ("unknown", '{"type": "spiral"}')):
        path = os.path.join(workdir, "u%d_%s.json" % (u, key))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[key] = path
    paths["missing"] = os.path.join(workdir, "u%d_missing.json" % u)
    paths["csv"] = os.path.join(workdir, "u%d_series.csv" % u)
    info = {
        "p": p, "q": q, "dv": dv_pairs, "dv3_mult": MULT_FIXED[u % 2], "essentials": essentials, "other": other, "dv3": dv3_pairs,
        "mono": (rng.randint(0, 12), rng.randint(0, 12)),
        "mono3": tuple(rng.randint(0, 8) for _ in range(3)),
        "stair_k": rng.randint(0, 20),
        "val": (rng.randint(1, 4), rng.randint(1, 4)),
        "rees": (rng.choice((Fraction(3, 2), Fraction(2), Fraction(5, 3))), rng.randint(0, 2),
                 rng.randint(1, 6), rng.randint(1, 3)),
    }
    return paths, info


def _user_script(paths, info):
    """(argv, check) for every subcommand in both output modes, then the
    malformed inputs."""
    p, q = info["p"], info["q"]
    e = info["mono"]
    e3 = info["mono3"]
    k = info["stair_k"]
    adic_gens = [(p, 0), (0, q)]
    alpha, c, f_ord, n = info["rees"]
    integral, witness = ref.rees1(alpha, c, f_ord, n)
    ineqs = ref.newton_inequalities(adic_gens)
    mono = "%d,%d" % e
    mono3 = "%d,%d,%d" % e3
    val = "%d,%d" % info["val"]

    def value(want):
        return lambda doc: expect(doc["value"] == want, "value %r, expected %r" % (doc["value"], want))

    def first_line(want):
        return lambda lines: expect(lines[0] == want, "text %r, expected %r" % (lines[0], want))

    def scalar_is(text, want):
        expect(ref.parse_scalar_text(text) == want, "scalar %s, expected %s" % (text, want))

    def nubar_is(want):
        return lambda doc: scalar_is(doc["result"]["value"], (want, Fraction(0), 0))

    def levels_are(want_fn, m_max):
        def verify(doc):
            got = _levels_of(doc)
            expect(sorted(got) == list(range(1, m_max + 1)), "level indices")
            for m in got:
                expect(got[m] == want_fn(m), "level %d" % m)

        return verify

    def twist_level(m):
        t = -(-3 * m // 2)
        return {(p * i, q * (t - i)) for i in range(t + 1)}

    def bracket_level(m):
        rows = ref.dv_level_rows([(w, a * Fraction(3, 2)) for w, a in info["dv"]], m)
        return ref.minimal_points(ref.rows_box(rows), ref.rows_member(rows))

    def equiv_alpha(want):
        return lambda doc: (expect(doc["equivalent"], "not equivalent"), scalar_is(doc["alpha"], want))

    def equiv_counter(doc):
        expect(not doc["equivalent"], "equivalent")
        expect(ref.is_counterexample(info["dv"], 1, info["other"], 1, tuple(doc["counterexample"])),
               "bad counterexample %s" % (doc["counterexample"],))

    def recovered(doc):
        got = {(tuple(item["w"]), ref.parse_scalar_text(item["a"])[0]) for item in doc["pairs"]}
        expect(got == ref.strict_minimizers(fam.RECOVER_2D, fam.GRID), "recovered pairs")

    def mult_exact(doc):
        scalar_is(doc["exact"], (ref.dv_multiplicity(info["dv3_mult"]), Fraction(0), 0))

    def mult_both(lines):
        want_exact = ref.dv_multiplicity(info["dv"])
        want_est = Fraction(2 * ref.union_of_prefixes_colength(ref.dv_level_rows(info["dv"], 20)), 400)
        expect(lines[0] == "exact = %d/%d" % (want_exact.numerator, want_exact.denominator), "exact line")
        expect(lines[1] == "estimate(n=20) = %s" % want_est, "estimate line")

    def val_exact(doc):
        scalar_is(doc["result"]["exact"], (ref.dv_value_limit(info["dv"], info["val"]), Fraction(0), 0))

    def sat_contained(doc):
        expect(all(row["contained"] for row in doc["report"]["rows"]), "level outside Sat_n")

    def rees(doc):
        expect(doc["integral"] == integral and doc["witness"] == witness, "rees1 answer")

    nu_adic = e[0] // p + e[1] // q
    nu_dv = int(ref.omega(info["dv"], e))
    nu_stair = 0 if k < 1 else int(Fraction(k - 1) / Fraction(3, 2))
    nubar_adic = ref.np_order(ineqs, e)
    nubar_dv3 = ref.omega(info["dv3"], e3)
    f = paths
    both = [
        (["nu", "-f", f["adic"], "--monomial", mono], value(nu_adic), first_line(str(nu_adic))),
        (["nu", "-f", f["dv"], "--monomial", mono], value(nu_dv), first_line(str(nu_dv))),
        (["nu", "-f", f["stair"], "--monomial", str(k)], value(nu_stair), first_line(str(nu_stair))),
        (["nubar", "-f", f["adic"], "--monomial", mono], nubar_is(nubar_adic), None),
        (["nubar", "-f", f["dv3"], "--monomial", mono3], nubar_is(nubar_dv3), None),
        (["nubar", "-f", f["table"], "--monomial", mono, "--n-max", "4"],
         lambda doc: expect(doc["result"]["kind"] == "lower_bound", "table nubar kind"), None),
        (["twist", "-f", f["adic"], "--alpha", "3/2", "--m-max", "2"], levels_are(twist_level, 2), None),
        (["bracket", "-f", f["dv"], "--alpha", "3/2", "--m-max", "2"], levels_are(bracket_level, 2), None),
        (["k", "-f", f["adic"], "--m-max", "2"],
         levels_are(lambda m: ref.closure_generators(adic_gens, m), 2), None),
        (["ic", "-f", f["adic"], "--m-max", "2"],
         levels_are(lambda m: ref.closure_generators(adic_gens, m), 2), None),
        (["ic", "-f", f["twist"], "--m-max", "1", "--r-max", "4"], lambda doc: None, None),
        (["equiv", "--left", f["dv"], "--right", f["dv_twin"]],
         equiv_alpha((Fraction(3, 2), Fraction(0), 0)), None),
        (["equiv", "--left", f["dv"], "--right", f["dv_sqrt"]],
         equiv_alpha((Fraction(0), Fraction(1), 2)), None),
        (["equiv", "--left", f["dv"], "--right", f["dv_other"]], equiv_counter, None),
        (["recover", "-f", f["recover"], "--degree-bound", str(CLI_RECOVER_DEGREE)], recovered, None),
        (["mult", "-f", f["dv3_mult"]], mult_exact, None),
        (["val", "-f", f["dv"], "--valuation", val, "--n-max", "8"], val_exact, None),
        (["sat", "-f", f["dv"], "--test-vals", "1,1;2,3", "--n-max", "3"], sat_contained, None),
        (["rees1", "--alpha", fam.scalar_text(alpha), "--c", str(c), "--ord", str(f_ord), "--n", str(n)],
         rees, None),
    ]
    script = []
    for argv, verify_json, verify_text in both:
        script.append((argv + ["--json"], _cli_check(True, verify_json)))
        script.append((argv, _cli_check(False, verify_text or (lambda lines: None))))
    script.append((["mult", "-f", f["dv"], "--n-max", "20", "--csv", f["csv"]], _cli_check(False, mult_both)))
    script += [
        (["nu", "-f", f["missing"], "--monomial", mono], _expect_exit(2)),
        (["nu", "-f", f["invalid"], "--monomial", mono], _expect_exit(2)),
        (["nu", "-f", f["unknown"], "--monomial", mono], _expect_exit(2)),
        (["nu", "-f", f["adic"], "--monomial", "1,a"], _expect_exit(2)),
        (["twist", "-f", f["adic"], "--alpha", "0"], _expect_exit(2)),
        (["nu", "-f", f["adic"]], _expect_exit(2)),
        (["k", "-f", f["adic"]], _expect_exit(2)),
        (["nu", "-f", f["adic"], "--monomial", "1,1,1"], _expect_exit(3)),
        (["bracket", "-f", f["adic"], "--alpha", "2"], _expect_exit(3)),
        (["k", "-f", f["table"], "--m-max", "1"], _expect_exit(3)),
        (["twist", "-f", f["table"], "--alpha", "2", "--m-max", "2"], _expect_exit(4)),
    ]
    return script


def _failing_check(want):
    def check(res):
        expect(res.code == 0, "exit %r" % (res.code,))
        doc = json.loads(res.out)
        _validate(doc)
        for key, val in want.items():
            expect(doc[key] == val, "%s: %r" % (key, doc[key]))

    return check


def build_cli_session(seed, workdir):
    rng = random.Random(seed)
    script = []
    for u in range(SESSION_USERS):
        paths, info = _user_files(rng, workdir, u)
        script += [("u%d %s" % (u, " ".join(argv[:1])), argv, check)
                   for argv, check in _user_script(paths, info)]
    fixed = {"adic_x": fam.adic_doc([(1,)]), "adic_xy": fam.adic_doc([(1, 0), (0, 1)])}
    fixed_paths = {}
    for key, doc in fixed.items():
        fixed_paths[key] = os.path.join(workdir, "%s.json" % key)
        with open(fixed_paths[key], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    for argv, want in FAILING:
        argv = [a.format(**fixed_paths) for a in argv]
        script.append(("fixed %s" % argv[0], argv, _failing_check(want)))
    # every filtration file must parse, so set-up includes parsing them
    for path in sorted(os.listdir(workdir)):
        if path.endswith(".json") and not path.endswith(("_invalid.json", "_unknown.json")):
            with open(os.path.join(workdir, path), encoding="utf-8") as fh:
                samfilt.filtration_from_json(json.load(fh))
    qs = [Query(name, lambda r, argv=argv: run_cli(argv), check) for name, argv, check in script]
    return {}, qs


BUILDERS = {
    "lattice_levels": build_lattice_levels,
    "polyhedral": build_polyhedral,
    "cli_session": build_cli_session,
}


def build(name, seed, workdir):
    """(docs, queries) of one workload."""
    docs, qs = BUILDERS[name](seed, workdir)
    for doc in docs.values():  # set-up parses every engine once
        samfilt.filtration_from_json(doc)
    return docs, qs
