"""Fuzz the command line: mutated filtration files and argument values must
end in exit 0, 2, 3 or 4 with at most one line on stderr, never a traceback.
A value that argparse reads as an option (it starts with "-" and is not a
plain negative number) is a usage error: exit 2 with one line, no usage.

Magnitudes stay small (exponents <= 20, level and power bounds <= 8): the
point is malformed and odd-shaped input, not deep enumeration.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from samfilt.cli import main

EXP = st.integers(0, 20)
POSITIVE = st.sampled_from(
    ["1", "2", "1/2", "3/2", "7/3", "20/7", "(0+1*sqrt(2))/1", "(1+1*sqrt(3))/2"])
DASHED = ["-1,2", "-x", "-1/2", "-(1+1*sqrt(2))/2"]
SCALAR = st.one_of(POSITIVE, st.sampled_from(["0", "-1", "1/0", "inf", "x", ""] + DASHED))
BOUND = st.integers(-1, 8).map(str)
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 20), st.floats(0, 3),
                 st.text(max_size=3), st.builds(list), st.builds(dict))


def exponent(n):
    return st.lists(EXP, min_size=n, max_size=n)


@st.composite
def ideal(draw, n):
    return {"n": n, "gens": draw(st.lists(exponent(n), max_size=4))}


@st.composite
def root(draw, n):
    kind = draw(st.sampled_from(["adic", "dv", "stair1", "table"]))
    if kind == "adic":
        return {"type": "adic", "ideal": draw(ideal(n))}
    if kind == "dv":
        pairs = draw(st.lists(
            st.fixed_dictionaries({"w": exponent(n), "a": POSITIVE}),
            min_size=1, max_size=4))
        return {"type": "dv", "pairs": pairs}
    if kind == "stair1":
        return {"type": "stair1", "alpha": draw(POSITIVE), "c": draw(st.integers(0, 5))}
    horizon = draw(st.integers(0, 3))
    levels = [[m, draw(ideal(n))] for m in range(1, horizon + 1)]
    return {"type": "table", "horizon": horizon, "levels": levels}


@st.composite
def filtration(draw, n):
    doc = draw(root(n))
    for _ in range(draw(st.integers(0, 2))):
        doc = {"type": "twist", "alpha": draw(POSITIVE), "base": doc}
    return doc


@st.composite
def mutated(draw, doc):
    """Replace one value anywhere in the document, or drop one key."""
    nodes = [doc]
    for node in nodes:
        children = node.values() if isinstance(node, dict) else node
        nodes.extend(c for c in children if isinstance(c, (dict, list)))
    node = draw(st.sampled_from(nodes))
    if not node:
        return doc
    key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(JUNK)
    return doc


@st.composite
def invocation(draw):
    cmd = draw(st.sampled_from(
        ["nu", "nubar", "twist", "bracket", "k", "ic", "equiv", "recover",
         "mult", "val", "sat", "rees1"]))
    n = draw(st.integers(1, 3))
    docs = [draw(filtration(n)), draw(filtration(draw(st.sampled_from([n, 2]))))]
    for doc in docs:
        if draw(st.integers(0, 2)) == 0:
            draw(mutated(doc))
    mono = draw(st.one_of(
        exponent(draw(st.sampled_from([n, n, n + 1]))).map(lambda e: ",".join(map(str, e))),
        st.sampled_from(["", "x", "1,,2", "1,-2"] + DASHED)))
    alpha, b1, b2, b3 = draw(SCALAR), draw(BOUND), draw(BOUND), draw(BOUND)
    n_max = draw(st.sampled_from([[], ["--n-max", b1]]))
    argv = {
        "nu": ["--monomial", mono],
        "nubar": ["--monomial", mono] + n_max,
        "twist": ["--alpha", alpha, "--m-max", b1],
        "bracket": ["--alpha", alpha, "--m-max", b1],
        "k": ["--m-max", b1],
        "ic": ["--m-max", b1],
        "equiv": [],
        "recover": ["--degree-bound", b1],
        "mult": n_max,
        "val": ["--valuation", mono, "--n-max", b1],
        "sat": ["--test-vals", mono, "--n-max", b1],
        "rees1": ["--alpha", alpha, "--c", b1, "--ord", b2, "--n", b3],
    }[cmd]
    return cmd, docs, argv + draw(st.sampled_from([[], ["--json"]]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(invocation())
def test_cli_exits_cleanly(case):
    cmd, docs, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(os.path.join(tmp, "f%d.json" % i))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        if cmd == "equiv":
            files = ["--left", paths[0], "--right", paths[1]]
        elif cmd == "rees1":
            files = []
        else:
            files = ["-f", paths[0]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([cmd] + files + argv)
    err = err.getvalue()
    assert rc in (0, 2, 3, 4), (rc, err)
    assert "Traceback" not in err and "usage:" not in err
    assert len(err.splitlines()) <= 1, err
    if any(a in DASHED for a in argv):
        assert rc == 2 and len(err.splitlines()) == 1, (argv, err)
