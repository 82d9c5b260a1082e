"""Command-line front end.

One binary with subcommands; filtrations come in as JSON files per the
grammar in the filtration module, results go out as exact scalars (and
as machine-readable JSON under --json; see the schemas module).

Exit codes: 0 ok, 2 parse error (argparse usage errors included, one
line on stderr), 3 precondition violated, 4 an internal limit (table
horizon / nesting depth) prevented any answer.

``main(argv)`` may be called any number of times in one process: the
argparse tree is built on the first call and reused by later ones. Only
repeated in-process calls gain; a shell command runs main() once.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .equivalence import (
    OmegaOracle,
    projectively_equivalent,
    recover_valuations,
    valuation_pairs,
)
from .errors import (
    LimitError,
    MixedRadicalError,
    NotPrimaryError,
    ParseError,
    PreconditionError,
    SamfiltError,
)
from .exactnum import _DIGITS_RE, MAX_DIGITS, PlusInfinity, _quoted, format_scalar
from .filtration import (
    AtLeast,
    Filtration,
    _parse_positive_scalar,
    bracket_twist,
    filtration_from_json,
    twist,
)
from .monomial import SupportPoly, monomial_str
from .multiplicity import (
    filtration_value,
    multiplicity_estimate,
    multiplicity_exact,
    saturation_check,
)
from .samuel import (
    ic_filtration,
    k_filtration,
    nubar,
    nubar_estimate,
    rees_integral_witness_1var,
)
from .valuation import MonomialValuation


def _load_filtration(path: str) -> Filtration:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            "%s: invalid JSON at line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc
    except ValueError as exc:  # int()'s digit limit, met by a JSON integer
        raise ParseError("%s: JSON integer %s has more than %d digits" % (
            path, _quoted(max(_DIGITS_RE.findall(text), key=len)), MAX_DIGITS)) from exc
    return filtration_from_json(data)


def _parse_exponent(text: str):
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ParseError("bad exponent list %s" % _quoted(text)) from exc
    if not parts or any(p < 0 for p in parts):
        raise ParseError("exponents must be nonnegative integers: %s" % _quoted(text))
    return tuple(parts)


def _monomial_arg(args, F: Filtration) -> SupportPoly:
    if args.monomial is None:
        raise ParseError("--monomial is required for this command")
    e = _parse_exponent(args.monomial)
    if len(e) != F.n:
        raise PreconditionError(
            "monomial has %d coordinates, filtration lives in %d variables"
            % (len(e), F.n)
        )
    return SupportPoly.monomial(e)


def _emit(args, text_lines, doc):
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
    return 0


def _levels_json(table):
    return [[m, table.level(m).to_json()] for m in range(1, table.horizon + 1)]


def _cmd_nu(args):
    F = _load_filtration(args.filtration)
    f = _monomial_arg(args, F)
    order = F.order(f)
    if isinstance(order, PlusInfinity):
        return _emit(args, ["inf"], {"command": "nu", "kind": "infinite", "value": None})
    if isinstance(order, AtLeast):
        return _emit(
            args,
            [">= %d" % order.bound],
            {"command": "nu", "kind": "at_least", "value": order.bound},
        )
    return _emit(args, [str(order)], {"command": "nu", "kind": "finite", "value": order})


def _cmd_nubar(args):
    F = _load_filtration(args.filtration)
    f = _monomial_arg(args, F)
    if args.n_max is not None:
        res = nubar_estimate(F, f, args.n_max)
    else:
        res = nubar(F, f)
    return _emit(args, [str(res)], {"command": "nubar", "result": res.to_json()})


def _twistlike(args, name, build):
    F = _load_filtration(args.filtration)
    alpha = _parse_positive_scalar(args.alpha, "alpha")
    G = build(F, alpha)
    lines = [json.dumps(G.to_json(), sort_keys=True)]
    doc = {"command": name, "filtration": G.to_json()}
    if args.m_max is not None:
        doc["levels"] = [[m, G.level(m).to_json()] for m in range(1, args.m_max + 1)]
        lines += ["I_%d = %s" % (m, G.level(m)) for m in range(1, args.m_max + 1)]
    return _emit(args, lines, doc)


def _cmd_twist(args):
    return _twistlike(args, "twist", twist)


def _cmd_bracket(args):
    return _twistlike(args, "bracket", bracket_twist)


def _tabulated(args, name, letter, build):
    F = _load_filtration(args.filtration)
    table = build(F, args.m_max)
    lines = ["%s_%d = %s" % (letter, m, table.level(m)) for m in range(1, args.m_max + 1)]
    doc = {
        "command": name,
        "m_max": args.m_max,
        "levels": _levels_json(table),
        "filtration": table.to_json(),
    }
    return _emit(args, lines, doc)


def _cmd_k(args):
    return _tabulated(args, "k", "K", k_filtration)


def _cmd_ic(args):
    return _tabulated(args, "ic", "J", ic_filtration)


def _cmd_equiv(args):
    F = _load_filtration(args.left)
    G = _load_filtration(args.right)
    res = projectively_equivalent(F, G)
    if res.equivalent:
        lines = ["equivalent, alpha = %s" % format_scalar(res.alpha)]
    else:
        lines = ["not equivalent, counterexample monomial = %s"
                 % monomial_str(res.counterexample)]
    doc = {
        "command": "equiv",
        "equivalent": res.equivalent,
        "alpha": format_scalar(res.alpha) if res.equivalent else None,
        "counterexample": None if res.equivalent else list(res.counterexample),
    }
    return _emit(args, lines, doc)


def _cmd_recover(args):
    F = _load_filtration(args.filtration)
    oracle = OmegaOracle.from_pairs(valuation_pairs(F))
    rep = recover_valuations(oracle, args.degree_bound)
    lines = [
        "w=%s a=%s" % (",".join(map(str, v.w)), format_scalar(a)) for v, a in rep
    ]
    return _emit(args, lines, {"command": "recover", "pairs": rep.to_json()})


def _cmd_mult(args):
    if args.csv and args.n_max is None:
        raise ParseError("--csv needs --n-max")
    F = _load_filtration(args.filtration)
    exact = why = None
    try:
        exact = multiplicity_exact(F)
    except MixedRadicalError as exc:  # the exact path exists but cannot finish
        why = "no exact multiplicity (%s)" % exc
    except NotPrimaryError:  # every level has infinite colength: no estimate
        raise
    except PreconditionError:  # a table-rooted engine has no exact path
        why = "no exact path for this engine"
    estimate = None
    series = None
    if args.n_max is not None:
        estimate, series = multiplicity_estimate(F, args.n_max)
    if exact is None and estimate is None:
        raise PreconditionError("%s; pass --n-max for an estimate" % why)
    lines = []
    if exact is not None:
        lines.append("exact = %s" % format_scalar(exact))
    if estimate is not None:
        lines.append("estimate(n=%d) = %s" % (args.n_max, estimate))
    if series is not None and args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(series.to_csv())
        except OSError as exc:
            raise ParseError("cannot write %s: %s" % (args.csv, exc)) from exc
        lines.append("series written to %s" % args.csv)
    doc = {
        "command": "mult",
        "exact": None if exact is None else format_scalar(exact),
        "estimate": None if estimate is None else str(estimate),
        "n_max": args.n_max,
        "series": None if series is None else series.to_json(),
    }
    return _emit(args, lines, doc)


def _cmd_val(args):
    F = _load_filtration(args.filtration)
    if args.valuation is None:
        raise ParseError("--valuation is required for val")
    v = MonomialValuation(_parse_exponent(args.valuation))
    n_max = args.n_max if args.n_max is not None else 20
    res = filtration_value(v, F, n_max)
    return _emit(args, [str(res)], {"command": "val", "result": res.to_json()})


def _cmd_sat(args):
    F = _load_filtration(args.filtration)
    n_max = args.n_max if args.n_max is not None else 10
    test_vals = []
    if args.test_vals:
        for chunk in args.test_vals.split(";"):
            test_vals.append(MonomialValuation(_parse_exponent(chunk)))
    report = saturation_check(F, test_vals, n_max)
    lines = [
        "valuations: "
        + "; ".join(
            "w=%s value=%s" % (",".join(map(str, v.w)), format_scalar(a))
            for v, a in zip(report.valuations, report.values)
        )
    ]
    for row in report.rows:
        lines.append(
            "n=%-4d contained=%-5s equal=%-5s Sat_n = %s"
            % (row.n, row.contained, row.equal, row.sat)
        )
    lines.append(
        "all levels equal to the saturation bound"
        if report.all_equal()
        else "strict at some level (see rows)"
    )
    return _emit(args, lines, {"command": "sat", "report": report.to_json()})


def _cmd_rees1(args):
    alpha = _parse_positive_scalar(args.alpha, "alpha")
    witness = rees_integral_witness_1var(alpha, args.c, args.ord, args.n)
    ok = witness is not None
    lines = ["integral (witness d=%d)" % witness if ok else "not integral"]
    doc = {"command": "rees1", "integral": ok, "witness": witness}
    return _emit(args, lines, doc)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 2, one line); subparsers inherit it."""

    def error(self, message):
        # echo at most 20 characters of a long argument, quoted or not
        message = re.sub(r"'([^']{21,})'|([^\s']{21,})",
                         lambda m: _quoted(m.group(1) or m.group(2)), message)
        raise ParseError("%s: %s" % (self.prog, message))


@functools.cache
def _build_parser():
    """The argparse tree, built on the first main() call and reused after:
    building it costs about 30 parses, and parse_args keeps no state in it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--seed", type=int, default=None, help="accepted for reproducibility; "
        "all subcommands here are deterministic"
    )

    filt = argparse.ArgumentParser(add_help=False)
    filt.add_argument("--filtration", "-f", required=True, metavar="FILE",
                      help="filtration JSON file")

    p = _Parser(
        prog="samfilt",
        description="Exact computations with filtrations of monomial ideals.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("nu", parents=[common, filt], help="order of a monomial")
    s.add_argument("--monomial", metavar="E1,E2,...")
    s.set_defaults(fn=_cmd_nu)

    s = sub.add_parser("nubar", parents=[common, filt],
                       help="asymptotic order of a monomial")
    s.add_argument("--monomial", metavar="E1,E2,...")
    s.add_argument("--n-max", type=int, default=None,
                   help="force the estimator with this power bound")
    s.set_defaults(fn=_cmd_nubar)

    s = sub.add_parser("twist", parents=[common, filt],
                       help="reindex levels by ceil(alpha * m)")
    s.add_argument("--alpha", required=True)
    s.add_argument("--m-max", type=int, default=None, help="also print levels")
    s.set_defaults(fn=_cmd_twist)

    s = sub.add_parser("bracket", parents=[common, filt],
                       help="scale the defining values by alpha (discrete valued)")
    s.add_argument("--alpha", required=True)
    s.add_argument("--m-max", type=int, default=None, help="also print levels")
    s.set_defaults(fn=_cmd_bracket)

    s = sub.add_parser("k", parents=[common, filt],
                       help="saturated filtration levels {nubar >= m}")
    s.add_argument("--m-max", type=int, required=True)
    s.set_defaults(fn=_cmd_k)

    s = sub.add_parser("ic", parents=[common, filt],
                       help="graded integral closure levels")
    s.add_argument("--m-max", type=int, required=True)
    s.add_argument("--r-max", type=int, default=None,
                   help="accepted for compatibility and ignored: the levels "
                        "are exact over every integrality witness r")
    s.set_defaults(fn=_cmd_ic)

    s = sub.add_parser("equiv", parents=[common],
                       help="projective equivalence of two filtrations")
    s.add_argument("--left", required=True, metavar="FILE")
    s.add_argument("--right", required=True, metavar="FILE")
    s.set_defaults(fn=_cmd_equiv)

    s = sub.add_parser("recover", parents=[common, filt],
                       help="recover the canonical valuations from order data")
    s.add_argument("--degree-bound", type=int, required=True)
    s.set_defaults(fn=_cmd_recover)

    s = sub.add_parser("mult", parents=[common, filt],
                       help="multiplicity (exact and/or estimated)")
    s.add_argument("--n-max", type=int, default=None)
    s.add_argument("--csv", metavar="FILE", default=None,
                   help="write the colength series as CSV")
    s.set_defaults(fn=_cmd_mult)

    s = sub.add_parser("val", parents=[common, filt],
                       help="value of a monomial valuation along the filtration")
    s.add_argument("--valuation", metavar="W1,W2,...")
    s.add_argument("--n-max", type=int, default=None)
    s.set_defaults(fn=_cmd_val)

    s = sub.add_parser("sat", parents=[common, filt],
                       help="check levels against the valuation saturation bound")
    s.add_argument("--test-vals", metavar="W1,W2;W1,W2", default=None)
    s.add_argument("--n-max", type=int, default=None)
    s.set_defaults(fn=_cmd_sat)

    s = sub.add_parser("rees1", parents=[common],
                       help="one-variable graded integrality test")
    s.add_argument("--alpha", required=True)
    s.add_argument("--c", type=int, required=True)
    s.add_argument("--ord", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(fn=_cmd_rees1)

    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except LimitError as exc:
        print("limit reached: %s" % exc, file=sys.stderr)
        return 4
    except RecursionError:  # deeply nested input: json parsing or twist chains
        print("limit reached: input nested too deeply", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print("precondition error: %s" % exc, file=sys.stderr)
        return 3
    except SamfiltError as exc:  # RecoveryError and any other library error
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
