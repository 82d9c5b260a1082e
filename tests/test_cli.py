import json

import jsonschema
import pytest

from samfilt import filtration_from_json
from samfilt.cli import _build_parser, main
from samfilt.schemas import SCHEMAS

ADIC = {"type": "adic", "ideal": {"n": 2, "gens": [[2, 0], [0, 3]]}}
DV = {
    "type": "dv",
    "pairs": [{"w": [1, 2], "a": "1/1"}, {"w": [2, 1], "a": "1/1"}],
}
DV3 = {
    "type": "dv",
    "pairs": [{"w": [1, 2], "a": "3/1"}, {"w": [2, 1], "a": "3/1"}],
}
DV_ONES = {"type": "dv", "pairs": [{"w": [1, 1], "a": "1/1"}]}
STAIR = {"type": "stair1", "alpha": "3/2", "c": 1}
TW_DV = {
    "type": "twist",
    "alpha": "1/2",
    "base": {"type": "dv", "pairs": [{"w": [1, 1], "a": "2/1"}]},
}
UNIT = {"type": "adic", "ideal": {"n": 2, "gens": [[0, 0]]}}
ZERO = {"type": "adic", "ideal": {"n": 2, "gens": []}}
TABLE2 = {
    "type": "table",
    "horizon": 2,
    "levels": [
        [1, {"n": 2, "gens": [[1, 0], [0, 1]]}],
        [2, {"n": 2, "gens": [[2, 0], [1, 1], [0, 2]]}],
    ],
}


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return {
        "adic": write("adic.json", ADIC),
        "dv": write("dv.json", DV),
        "dv3": write("dv3.json", DV3),
        "dv_ones": write("dv_ones.json", DV_ONES),
        "stair": write("stair.json", STAIR),
        "tw_dv": write("tw_dv.json", TW_DV),
        "unit": write("unit.json", UNIT),
        "zero": write("zero.json", ZERO),
        "table2": write("table2.json", TABLE2),
        "dir": tmp_path,
    }


@pytest.fixture
def run(capsys):
    def go(*argv):
        rc = main(list(argv))
        cap = capsys.readouterr()
        return rc, cap.out, cap.err

    return go


def run_json(go, *argv):
    rc, out, err = go(*argv, "--json")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS[doc["command"]])
    return doc


class TestNu:
    def test_text(self, run, files):
        rc, out, err = run("nu", "-f", files["adic"], "--monomial", "3,3")
        assert (rc, out, err) == (0, "2\n", "")

    def test_json(self, run, files):
        doc = run_json(run, "nu", "-f", files["adic"], "--monomial", "3,3")
        assert doc == {"command": "nu", "kind": "finite", "value": 2}

    def test_infinite(self, run, files):
        rc, out, _ = run("nu", "-f", files["unit"], "--monomial", "1,1")
        assert rc == 0 and out == "inf\n"
        doc = run_json(run, "nu", "-f", files["unit"], "--monomial", "1,1")
        assert doc == {"command": "nu", "kind": "infinite", "value": None}


    def test_deep_power_of_adic(self, run, files, tmp_path):
        # the order walk has no recursion depth growing with the exponent
        path = tmp_path / "adic_xy.json"
        path.write_text(json.dumps({"type": "adic", "ideal": {"n": 2, "gens": [[1, 0], [0, 1]]}}))
        rc, out, err = run("nu", "-f", str(path), "--monomial", "1200,0")
        assert (rc, out, err) == (0, "1200\n", "")
        # and no memo: (x^2, y^3) answers by a dive of 28333 strips
        rc, out, err = run("nu", "-f", files["adic"], "--monomial", "30001,40000")
        assert (rc, out, err) == (0, "28333\n", "")


class TestNubar:
    def test_exact_text(self, run, files):
        rc, out, _ = run("nubar", "-f", files["adic"], "--monomial", "5,0")
        assert rc == 0 and out == "5/2 (exact)\n"

    def test_exact_json(self, run, files):
        doc = run_json(run, "nubar", "-f", files["adic"], "--monomial", "5,0")
        assert doc == {
            "command": "nubar",
            "result": {
                "kind": "exact",
                "truncated": False,
                "value": "5/2",
                "witness_n": None,
            },
        }

    def test_estimate(self, run, files):
        rc, out, _ = run(
            "nubar", "-f", files["stair"], "--monomial", "2", "--n-max", "10"
        )
        assert rc == 0 and out == ">= 5/4 (witness n=8)\n"
        doc = run_json(
            run, "nubar", "-f", files["stair"], "--monomial", "2",
            "--n-max", "10",
        )
        assert doc["result"] == {
            "kind": "lower_bound",
            "truncated": False,
            "value": "5/4",
            "witness_n": 8,
        }

    def test_infinite(self, run, files):
        rc, out, _ = run("nubar", "-f", files["unit"], "--monomial", "1,1")
        assert rc == 0 and out == "inf (exact)\n"


class TestTwist:
    def test_levels_text(self, run, files):
        rc, out, _ = run(
            "twist", "-f", files["dv"], "--alpha", "3/2", "--m-max", "2"
        )
        assert rc == 0
        lines = out.splitlines()
        assert json.loads(lines[0])["type"] == "twist"
        assert lines[1] == "I_1 = (y^2, x*y, x^2)"
        assert lines[2] == "I_2 = (x*y, y^3, x^3)"

    def test_json_round_trip(self, run, files):
        doc = run_json(run, "twist", "-f", files["dv"], "--alpha", "3/2")
        F = filtration_from_json(doc["filtration"])
        assert F.level(1).gens == ((0, 2), (1, 1), (2, 0))
        assert doc["filtration"]["alpha"] == "3/2"
        assert doc["filtration"]["base"]["type"] == "dv"

    def test_nested_twist_preserved(self, run, files, tmp_path):
        doc = run_json(run, "twist", "-f", files["tw_dv"], "--alpha", "4/3")
        inner = doc["filtration"]["base"]
        assert inner["type"] == "twist" and inner["alpha"] == "1/2"


    def test_deep_adic_level(self, run, tmp_path):
        # level 1200 of the base is built without recursion
        path = tmp_path / "adic_x.json"
        path.write_text(json.dumps({"type": "adic", "ideal": {"n": 1, "gens": [[1]]}}))
        doc = run_json(run, "twist", "-f", str(path), "--alpha", "1200", "--m-max", "1")
        assert doc["levels"] == [[1, {"n": 1, "gens": [[1200]]}]]


class TestBracket:
    def test_text(self, run, files):
        rc, out, _ = run("bracket", "-f", files["dv"], "--alpha", "3/2")
        got = json.loads(out.splitlines()[0])
        assert got == {
            "type": "dv",
            "pairs": [
                {"w": [1, 2], "a": "3/2"},
                {"w": [2, 1], "a": "3/2"},
            ],
        }

    def test_json(self, run, files):
        doc = run_json(run, "bracket", "-f", files["dv"], "--alpha", "3/2")
        assert [p["a"] for p in doc["filtration"]["pairs"]] == ["3/2", "3/2"]

    def test_non_dv_rejected(self, run, files):
        rc, out, err = run("bracket", "-f", files["adic"], "--alpha", "2")
        assert rc == 3 and out == "" and "precondition" in err


class TestK:
    def test_text(self, run, files):
        rc, out, _ = run("k", "-f", files["adic"], "--m-max", "2")
        assert rc == 0
        assert out.splitlines() == [
            "K_1 = (x^2, y^3, x*y^2)",
            "K_2 = (x^4, x^2*y^3, x^3*y^2, y^6, x*y^5)",
        ]

    def test_json(self, run, files):
        doc = run_json(run, "k", "-f", files["adic"], "--m-max", "2")
        assert doc["m_max"] == 2
        assert doc["levels"][0] == [1, {"gens": [[2, 0], [0, 3], [1, 2]], "n": 2}]
        F = filtration_from_json(doc["filtration"])
        assert F.level(2).gens == ((4, 0), (2, 3), (3, 2), (0, 6), (1, 5))


class TestIc:
    # the level-1 witness for x and y needs r = 2; --r-max is accepted for
    # compatibility and ignored, so no bound leaves a monomial undecided
    R_MAX = ([], ["--r-max", "1"], ["--r-max", "1000000000"])

    def test_inconclusive_text(self, run, files):
        outputs = {run("ic", "-f", files["tw_dv"], "--m-max", "2", *extra)
                   for extra in self.R_MAX}
        assert outputs == {(0, "J_1 = (y, x)\nJ_2 = (y^2, x*y, x^2)\n", "")}

    def test_inconclusive_json(self, run, files):
        docs = [run_json(run, "ic", "-f", files["tw_dv"], "--m-max", "2", *extra)
                for extra in self.R_MAX]
        assert docs[0] == docs[1] == docs[2]
        assert sorted(docs[0]) == ["command", "filtration", "levels", "m_max"]
        assert docs[0]["levels"][0] == [1, {"gens": [[0, 1], [1, 0]], "n": 2}]

    def test_conclusive(self, run, files):
        rc, out, _ = run("ic", "-f", files["adic"], "--m-max", "1")
        assert rc == 0 and out == "J_1 = (x^2, y^3, x*y^2)\n"
        doc = run_json(run, "ic", "-f", files["adic"], "--m-max", "1")
        assert sorted(doc) == ["command", "filtration", "levels", "m_max"]


class TestEquiv:
    def test_equivalent(self, run, files):
        rc, out, _ = run("equiv", "--left", files["dv"], "--right", files["dv3"])
        assert rc == 0 and out == "equivalent, alpha = 3/1\n"

    def test_equivalent_json(self, run, files):
        doc = run_json(
            run, "equiv", "--left", files["dv"], "--right", files["dv3"]
        )
        assert doc == {
            "command": "equiv",
            "equivalent": True,
            "alpha": "3/1",
            "counterexample": None,
        }

    def test_not_equivalent(self, run, files):
        rc, out, _ = run(
            "equiv", "--left", files["dv_ones"], "--right", files["dv"]
        )
        assert rc == 0
        assert out == "not equivalent, counterexample monomial = y\n"
        doc = run_json(
            run, "equiv", "--left", files["dv_ones"], "--right", files["dv"]
        )
        assert doc == {
            "command": "equiv",
            "equivalent": False,
            "alpha": None,
            "counterexample": [0, 1],
        }

    def test_table_rooted_exit_3(self, run, files, tmp_path):
        tw = tmp_path / "tw_table.json"
        tw.write_text(json.dumps({"type": "twist", "alpha": "2", "base": TABLE2}))
        for left in (files["table2"], str(tw)):
            rc, out, err = run("equiv", "--left", left, "--right", files["dv"])
            assert rc == 3 and out == "" and "precondition error" in err
            assert "exact engine" in err and "Traceback" not in err

    def test_non_primary_adic_exit_3(self, run, files, tmp_path):
        path = tmp_path / "xy.json"
        path.write_text(json.dumps({"type": "adic", "ideal": {"n": 2, "gens": [[2, 0], [1, 1]]}}))
        for left, right in ((str(path), files["dv"]), (files["adic"], str(path))):
            rc, out, err = run("equiv", "--left", left, "--right", right)
            assert rc == 3 and out == "" and "not primary" in err

    def test_unit_and_zero_ideals_exit_3(self, run, files):
        for key, name in (("unit", "the unit ideal"), ("zero", "the zero ideal")):
            for left, right in ((files[key], files["dv"]), (files["adic"], files[key])):
                rc, out, err = run("equiv", "--left", left, "--right", right)
                assert rc == 3 and out == "" and len(err.splitlines()) == 1
                assert err.startswith("precondition error: %s has no valuation pairs" % name)

    def test_adic_against_dv_answers(self, run, files, tmp_path):
        # NP((x^2, y^3)) has the one facet 3x + 2y >= 6
        facet = tmp_path / "facet.json"
        facet.write_text(json.dumps({"type": "dv", "pairs": [{"w": [3, 2], "a": "6/1"}]}))
        rc, out, _ = run("equiv", "--left", files["adic"], "--right", str(facet))
        assert rc == 0 and out == "equivalent, alpha = 1/1\n"
        doc = run_json(run, "equiv", "--left", files["adic"], "--right", files["dv"])
        assert doc["equivalent"] is False and doc["counterexample"] is not None

    def test_no_counterexample_of_small_degree(self, run, tmp_path):
        # the normal forms differ only on a cone too thin to hold a monomial
        # of degree <= 64; the vertex (100, 101)/10301 of the right-hand
        # polyhedron lies off the left-hand one
        pairs = [{"w": [102, 1], "a": "1/1"}, {"w": [1, 101], "a": "1/1"},
                 {"w": [103, 102], "a": "100001/50000"}]
        left, right = tmp_path / "thin_f.json", tmp_path / "thin_g.json"
        left.write_text(json.dumps({"type": "dv", "pairs": pairs}))
        right.write_text(json.dumps({"type": "dv", "pairs": pairs[:2]}))
        rc, out, err = run("equiv", "--left", str(left), "--right", str(right))
        assert rc == 0 and err == ""
        assert out == "not equivalent, counterexample monomial = x^100*y^101\n"
        doc = run_json(run, "equiv", "--left", str(left), "--right", str(right))
        assert doc == {
            "command": "equiv",
            "equivalent": False,
            "alpha": None,
            "counterexample": [100, 101],
        }


class TestRecover:
    def test_text(self, run, files):
        rc, out, _ = run("recover", "-f", files["dv"], "--degree-bound", "6")
        assert rc == 0 and out.splitlines() == ["w=1,2 a=1/1", "w=2,1 a=1/1"]

    def test_json(self, run, files):
        doc = run_json(run, "recover", "-f", files["dv"], "--degree-bound", "6")
        assert doc == {
            "command": "recover",
            "pairs": [{"w": [1, 2], "a": "1/1"}, {"w": [2, 1], "a": "1/1"}],
        }

    def test_adic_returns_its_facets(self, run, files, tmp_path):
        rc, out, _ = run("recover", "-f", files["adic"], "--degree-bound", "6")
        assert rc == 0 and out == "w=3,2 a=6/1\n"
        path = tmp_path / "adic3.json"
        path.write_text(json.dumps({"type": "adic", "ideal": {"n": 2, "gens": [[4, 0], [1, 1], [0, 3]]}}))
        doc = run_json(run, "recover", "-f", str(path), "--degree-bound", "8")
        assert doc["pairs"] == [{"w": [1, 3], "a": "4/1"}, {"w": [2, 1], "a": "3/1"}]

    def test_table_exit_3(self, run, files):
        rc, out, err = run("recover", "-f", files["table2"], "--degree-bound", "4")
        assert rc == 3 and out == "" and "exact engine" in err

    def test_unit_and_zero_ideals_exit_3(self, run, files):
        for key, name in (("unit", "the unit ideal"), ("zero", "the zero ideal")):
            rc, out, err = run("recover", "-f", files[key], "--degree-bound", "4")
            assert rc == 3 and out == "" and len(err.splitlines()) == 1
            assert err.startswith("precondition error: %s has no valuation pairs" % name)

    def test_unrecoverable_at_the_bound_exit_3(self, run, tmp_path):
        # RecoveryError has no exit of its own: the library-error catch-all
        path = tmp_path / "thin.json"
        pairs = [{"w": [1, 7], "a": "1/1"}, {"w": [7, 1], "a": "1/1"},
                 {"w": [3, 4], "a": "(0+1*sqrt(2))/1"}]
        path.write_text(json.dumps({"type": "dv", "pairs": pairs}))
        rc, out, err = run("recover", "-f", str(path), "--degree-bound", "1")
        assert rc == 3 and out == ""
        assert err == "error: no stable directional form found up to degree 1\n"


class TestMult:
    def test_exact_only(self, run, files):
        rc, out, _ = run("mult", "-f", files["dv"])
        assert rc == 0 and out == "exact = 2/3\n"

    def test_exact_and_estimate_with_csv(self, run, files):
        csv_path = files["dir"] / "series.csv"
        rc, out, _ = run(
            "mult", "-f", files["dv"], "--n-max", "20", "--csv", str(csv_path)
        )
        assert rc == 0
        assert out.splitlines() == [
            "exact = 2/3",
            "estimate(n=20) = 147/200",
            f"series written to {csv_path}",
        ]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,colength,normalized"
        assert lines[1] == "1,1,2"
        assert len(lines) == 21

    def test_csv_unwritable_exit_2(self, run, files):
        bad = files["dir"] / "no_such_dir" / "x.csv"
        rc, out, err = run("mult", "-f", files["adic"], "--n-max", "3", "--csv", str(bad))
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and "cannot write" in err

    def test_csv_needs_n_max(self, run, files):
        csv_path = files["dir"] / "series.csv"
        rc, out, err = run("mult", "-f", files["adic"], "--csv", str(csv_path))
        assert rc == 2 and out == ""
        assert "--csv needs --n-max" in err
        assert not csv_path.exists()

    def test_exact_and_estimate_for_adic(self, run, files):
        rc, out, _ = run("mult", "-f", files["adic"], "--n-max", "10")
        assert rc == 0 and out == "exact = 6/1\nestimate(n=10) = 33/5\n"

    def test_table_needs_n_max(self, run, files):
        rc, out, err = run("mult", "-f", files["table2"])
        assert rc == 3 and out == ""
        assert "no exact path for this engine; pass --n-max" in err
        assert "dimension" not in err

    def test_not_primary_adic(self, run, tmp_path):
        # every level has infinite colength: --n-max cannot help either
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"type": "adic", "ideal": {"n": 2, "gens": [[1, 1]]}}))
        for extra in ((), ("--n-max", "5")):
            rc, out, err = run("mult", "-f", str(path), *extra)
            assert rc == 3 and out == ""
            assert "no pure power" in err and "--n-max" not in err

    def test_json(self, run, files):
        doc = run_json(run, "mult", "-f", files["dv"], "--n-max", "4")
        assert doc["exact"] == "2/3"
        assert doc["series"]["samples"] == [[1, 1], [2, 3], [3, 5], [4, 8]]

    MIXED = {
        "type": "dv",
        "pairs": [
            {"w": [1, 2], "a": "(0+1*sqrt(2))/1"},
            {"w": [2, 1], "a": "(0+1*sqrt(3))/1"},
        ],
    }

    def test_mixed_radicals_estimate_only(self, run, tmp_path):
        # no exact value across sqrt(2) and sqrt(3), but the estimate exists
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(self.MIXED))
        rc, out, err = run("mult", "-f", str(path), "--n-max", "20")
        assert (rc, out, err) == (0, "estimate(n=20) = 93/50\n", "")
        doc = run_json(run, "mult", "-f", str(path), "--n-max", "4")
        assert doc["exact"] is None and doc["estimate"] == "19/8"

    def test_mixed_radicals_without_n_max(self, run, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(self.MIXED))
        rc, out, err = run("mult", "-f", str(path))
        assert rc == 3 and out == ""
        assert "sqrt(2)" in err and "sqrt(3)" in err and "--n-max" in err


class TestVal:
    def test_text(self, run, files):
        rc, out, _ = run(
            "val", "-f", files["dv"], "--valuation", "1,1", "--n-max", "8"
        )
        assert rc == 0 and out == "2/3 (exact; running inf 2/3 at n=3)\n"

    def test_json(self, run, files):
        doc = run_json(
            run, "val", "-f", files["dv"], "--valuation", "1,1", "--n-max", "8"
        )
        assert doc == {
            "command": "val",
            "result": {"exact": "2/3", "upper": "2/3", "upper_n": 3},
        }

    def test_zero_ideal_is_infinite(self, run, files):
        # every level is (0); this used to exit 3 with "not an exact scalar"
        rc, out, err = run("val", "-f", files["zero"], "--valuation", "1,1")
        assert (rc, out, err) == (0, "inf (exact; running inf inf at n=1)\n", "")
        doc = run_json(run, "val", "-f", files["zero"], "--valuation", "1,1")
        assert doc["result"] == {"exact": "inf", "upper": "inf", "upper_n": 1}


class TestSat:
    def test_adic_strict(self, run, files):
        rc, out, _ = run(
            "sat", "-f", files["adic"], "--test-vals", "3,2", "--n-max", "2"
        )
        assert rc == 0
        assert out.splitlines() == [
            "valuations: w=3,2 value=6/1",
            "n=1    contained=True  equal=False Sat_n = (x^2, y^3, x*y^2)",
            "n=2    contained=True  equal=False Sat_n = (x^4, x^2*y^3, x^3*y^2, y^6, x*y^5)",
            "strict at some level (see rows)",
        ]

    def test_dv_equal(self, run, files):
        rc, out, _ = run("sat", "-f", files["dv"], "--n-max", "2")
        assert rc == 0
        assert out.splitlines()[-1] == "all levels equal to the saturation bound"

    def test_json(self, run, files):
        doc = run_json(run, "sat", "-f", files["dv"], "--n-max", "2")
        rep = doc["report"]
        assert rep["valuations"] == [[1, 2], [2, 1]]
        assert rep["values"] == ["1/1", "1/1"]
        assert all(r["equal"] and r["contained"] for r in rep["rows"])

    def test_multiple_test_vals(self, run, files):
        doc = run_json(
            run, "sat", "-f", files["adic"], "--test-vals", "3,2;1,1",
            "--n-max", "1",
        )
        assert doc["report"]["valuations"] == [[3, 2], [1, 1]]
        assert doc["report"]["values"] == ["6/1", "2/1"]

    def test_zero_ideal(self, run, files):
        doc = run_json(
            run, "sat", "-f", files["zero"], "--test-vals", "1,1", "--n-max", "2"
        )
        rep = doc["report"]
        assert rep["values"] == ["inf"]
        assert [r["sat"]["gens"] for r in rep["rows"]] == [[], []]
        assert all(r["equal"] and r["contained"] for r in rep["rows"])


class TestRees1:
    def test_integral(self, run):
        rc, out, _ = run(
            "rees1", "--alpha", "3/2", "--c", "1", "--ord", "2", "--n", "1"
        )
        assert rc == 0 and out == "integral (witness d=2)\n"

    def test_not_integral(self, run):
        rc, out, _ = run(
            "rees1", "--alpha", "3/2", "--c", "1", "--ord", "1", "--n", "1"
        )
        assert rc == 0 and out == "not integral\n"

    def test_json(self, run):
        doc = run_json(
            run, "rees1", "--alpha", "3/2", "--c", "1", "--ord", "2", "--n", "1"
        )
        assert doc == {"command": "rees1", "integral": True, "witness": 2}

    def test_irrational_alpha(self, run):
        rc, out, _ = run(
            "rees1", "--alpha", "(0+1*sqrt(2))/1", "--c", "0", "--ord", "3",
            "--n", "2",
        )
        assert rc == 0 and out == "integral (witness d=1)\n"

    def test_large_shift_witness_in_closed_form(self, run):
        # d = ceil(c / (15 - 10 sqrt 2)) = ceil((15c + sqrt(200 c^2)) / 25)
        # for c = 10^9; 200 c^2 is no square, so with s = isqrt(200 c^2) this
        # is (15c + s) // 25 + 1.  A scan over d would take 10^9 steps.
        doc = run_json(
            run, "rees1", "--alpha", "(0+1*sqrt(2))/1", "--c", "1000000000",
            "--ord", "15", "--n", "10",
        )
        assert doc == {"command": "rees1", "integral": True, "witness": 1165685425}


class TestErrorHandling:
    def test_invalid_json_exit_2(self, run, files):
        p = files["dir"] / "broken.json"
        p.write_text('{"type": "adic", "ideal":')
        rc, out, err = run("nu", "-f", str(p), "--monomial", "1,1")
        assert rc == 2 and out == ""
        assert "parse error" in err and "line 1 column" in err

    def test_missing_file_exit_2(self, run, files):
        rc, out, err = run(
            "nu", "-f", str(files["dir"] / "missing.json"), "--monomial", "1,1"
        )
        assert rc == 2 and "parse error" in err

    def test_unknown_type_exit_2(self, run, files):
        p = files["dir"] / "odd.json"
        p.write_text('{"type": "mystery"}')
        rc, _, err = run("nu", "-f", str(p), "--monomial", "1,1")
        assert rc == 2 and "unknown filtration type 'mystery'" in err

    def test_bad_monomial_exit_2(self, run, files):
        rc, _, err = run("nu", "-f", files["adic"], "--monomial", "nonsense")
        assert rc == 2 and "bad exponent list" in err

    def test_missing_monomial_exit_2(self, run, files):
        rc, _, err = run("nubar", "-f", files["adic"])
        assert rc == 2 and "--monomial is required" in err

    def test_dimension_mismatch_exit_3(self, run, files):
        rc, out, err = run("nu", "-f", files["adic"], "--monomial", "1,1,1")
        assert rc == 3 and out == ""
        assert "3 coordinates" in err and "2 variables" in err

    def test_horizon_exit_4(self, run, files):
        rc, out, err = run("mult", "-f", files["table2"], "--n-max", "5")
        assert rc == 4 and out == ""
        assert "limit reached" in err and "horizon 2" in err

    def test_huge_table_horizon_exit_2(self, run, tmp_path):
        # rejected on the level count, before anything of the horizon's size
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"type": "table", "horizon": 10**12, "levels": []}))
        rc, out, err = run("nu", "-f", str(path), "--monomial", "1")
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "levels must cover exactly 1..horizon" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("nu", "-f", "{adic}", "--monomial", "-1,2"),
            ("nu", "-f", "{adic}", "--monomial"),
            ("k", "-f", "{adic}"),
            ("nu", "-f", "{adic}", "--monomial", "1,1", "--n-max", "3"),
            ("nubar", "-f", "{adic}", "--monomial", "1,1", "--n-max", "x"),
            ("mystery",),
            (),
        ],
    )
    def test_usage_error_one_line_exit_2(self, run, files, argv):
        rc, out, err = run(*(a.format(**files) for a in argv))
        assert (rc, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("parse error: samfilt")
        assert "usage:" not in err and "Traceback" not in err

    def test_bad_alpha_exit_2(self, run, files):
        rc, _, err = run("twist", "-f", files["dv"], "--alpha", "1.5")
        assert rc == 2 and "parse error" in err

    @pytest.mark.parametrize("d", [10**20 + 39, 10**44 + 7], ids=["21-digit", "45-digit"])
    def test_large_radicand_exit_2(self, run, files, tmp_path, d):
        # refused before the radicand is factored, which would take hours
        scalar = "(0+1*sqrt(%d))/1" % d
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"type": "dv", "pairs": [{"w": [1, 2], "a": scalar}]}))
        for argv in (("nubar", "-f", str(path), "--monomial", "1,1"),
                     ("twist", "-f", files["dv"], "--alpha", scalar, "--m-max", "2")):
            rc, out, err = run(*argv)
            assert (rc, out) == (2, "")
            assert len(err.splitlines()) == 1 and "radicand exceeds 10^12" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "adic", "ideal": {"n": True, "gens": [[2]]}},
            {"type": "table", "horizon": True, "levels": [[1, {"n": 1, "gens": [[2]]}]]},
            {"type": "table", "horizon": 1, "levels": [[True, {"n": 1, "gens": [[2]]}]]},
            {"type": "table", "horizon": 1, "levels": [[1.0, {"n": 1, "gens": [[2]]}]]},
            {"type": "stair1", "alpha": "1/1", "c": True},
        ],
    )
    def test_json_integer_fields_reject_bools_and_floats(self, run, tmp_path, doc):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run("nu", "-f", str(path), "--monomial", "3", "--json")
        assert rc == 2 and out == "" and "parse error" in err

    def test_deep_nesting_exit_4(self, run, tmp_path):
        # a chain of twists deeper than the interpreter's recursion limit
        def nested(depth):
            head = '{"type": "twist", "alpha": "1/1", "base": '
            return head * depth + json.dumps(ADIC) + "}" * depth

        deep = tmp_path / "deep.json"
        deep.write_text(nested(3000))
        for argv in (("nu", "--monomial", "1,1"), ("mult",)):
            rc, out, err = run(argv[0], "-f", str(deep), *argv[1:])
            assert rc == 4 and out == ""
            assert len(err.splitlines()) == 1 and "Traceback" not in err
        mid = tmp_path / "mid.json"
        mid.write_text(nested(900))
        rc, out, err = run("twist", "-f", str(mid), "--alpha", "1", "--m-max", "1")
        assert rc in (0, 4) and "Traceback" not in err
        assert len(err.splitlines()) <= 1
        if rc == 4:
            assert out == ""

    def test_deep_twist_chain_answers_like_its_root(self, run, files, tmp_path):
        # 900 nested twists by 1 over (x^2, y^3): every walk over the chain
        # is a loop, so each command answers as the un-nested file does
        head = '{"type": "twist", "alpha": "1/1", "base": '
        deep = tmp_path / "deep900.json"
        deep.write_text(head * 900 + json.dumps(ADIC) + "}" * 900)
        for argv in (
            ("k", "--m-max", "2"),
            ("ic", "--m-max", "2"),
            ("nubar", "--monomial", "3,4"),
            ("sat", "--test-vals", "1,1;1,2", "--n-max", "3"),
            ("val", "--valuation", "2,1", "--n-max", "3"),
            ("mult", "--n-max", "1"),
        ):
            got = run(argv[0], "-f", str(deep), *argv[1:])
            assert got[0] == 0 and got == run(argv[0], "-f", files["adic"], *argv[1:]), argv

    def test_seed_flag_accepted(self, run, files):
        rc, out, _ = run(
            "nu", "-f", files["adic"], "--monomial", "3,3", "--seed", "7"
        )
        assert rc == 0 and out == "2\n"


class TestParserReuse:
    """main() reuses one parser per process; no call may see another's
    arguments, defaults or output."""

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_estimator_flag_does_not_stick(self, run, files):
        rc, out, _ = run("nubar", "-f", files["adic"], "--monomial", "5,0", "--n-max", "4")
        assert rc == 0 and "(exact)" not in out
        rc, out, _ = run("nubar", "-f", files["adic"], "--monomial", "5,0")
        assert (rc, out) == (0, "5/2 (exact)\n")

    def test_csv_flag_does_not_stick(self, run, files):
        csv_path = files["dir"] / "series.csv"
        rc, _, _ = run("mult", "-f", files["dv"], "--n-max", "5", "--csv", str(csv_path))
        assert rc == 0 and csv_path.exists()
        csv_path.unlink()
        rc, out, _ = run("mult", "-f", files["dv"], "--n-max", "5")
        assert rc == 0 and "series written" not in out
        assert not csv_path.exists()

    def test_usage_error_leaves_parser_clean(self, run, files):
        _build_parser.cache_clear()  # so the first call below builds it
        argv = ("nubar", "-f", files["adic"], "--monomial", "5,0")
        first = run(*argv)
        rc, out, err = run(*argv, "--n-max", "four")
        assert (rc, out) == (2, "")
        assert err == "parse error: samfilt nubar: argument --n-max: invalid int value: 'four'\n"
        assert run(*argv) == first == (0, "5/2 (exact)\n", "")

    @pytest.mark.parametrize("argv", [("--help",), ("mult", "--help")])
    def test_help_is_stable(self, capsys, argv):
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1] and outs[0].out.startswith("usage: samfilt")


class TestSchemas:
    def test_every_command_has_schema(self):
        assert set(SCHEMAS) == {
            "nu", "nubar", "twist", "bracket", "k", "ic", "equiv",
            "recover", "mult", "val", "sat", "rees1",
        }

    def test_all_json_outputs_validate(self, run, files):
        calls = {
            "nu": ("nu", "-f", files["adic"], "--monomial", "3,3"),
            "nubar": ("nubar", "-f", files["adic"], "--monomial", "5,0"),
            "twist": ("twist", "-f", files["dv"], "--alpha", "3/2"),
            "bracket": ("bracket", "-f", files["dv"], "--alpha", "3/2"),
            "k": ("k", "-f", files["adic"], "--m-max", "2"),
            "ic": ("ic", "-f", files["adic"], "--m-max", "1"),
            "equiv": ("equiv", "--left", files["dv"], "--right", files["dv3"]),
            "recover": ("recover", "-f", files["dv"], "--degree-bound", "6"),
            "mult": ("mult", "-f", files["dv"], "--n-max", "4"),
            "val": ("val", "-f", files["dv"], "--valuation", "1,1",
                    "--n-max", "4"),
            "sat": ("sat", "-f", files["dv"], "--n-max", "2"),
            "rees1": ("rees1", "--alpha", "1", "--c", "0", "--ord", "1",
                      "--n", "1"),
        }
        for cmd, argv in calls.items():
            doc = run_json(run, *argv)
            assert doc["command"] == cmd
