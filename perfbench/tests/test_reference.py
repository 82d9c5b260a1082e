"""Tests of the benchmark's reference answers against hand-worked values.

Run:  python3 -m pytest perfbench/tests

None of these tests imports samfilt: the references must stand on their
own, so each expected value below is worked out by hand in its comment.
"""

import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import families as fam  # noqa: E402
import reference as ref  # noqa: E402

F = Fraction


class TestColength:
    def test_pure_powers_closed_form(self):
        # (x^2, y^3) leaves x^i y^j, i < 2, j < 3: six monomials
        assert ref.adic_pure_power_colength(2, 3, 1) == 6
        # (x^4, x^2 y^3, y^6): y < 6 for x < 2 (12), y < 3 for x in {2, 3} (6)
        assert ref.adic_pure_power_colength(2, 3, 2) == 18

    def test_saturation_count(self):
        # K_1 of (x^2, y^3) is {3x + 2y >= 6}; outside: 1, y, y^2, x, xy
        assert ref.union_of_prefixes_colength([((3, 2), 6)]) == 5
        # K_2: 3x + 2y < 12 has 6 + 5 + 3 + 2 = 16 points for x = 0..3
        assert ref.union_of_prefixes_colength([((3, 2), 12)]) == 16

    def test_dv_levels_fibre_by_fibre(self):
        pairs = [((1, 2), 1), ((2, 1), 1)]
        # level 1: only the origin lies below either line
        assert ref.union_of_prefixes_colength(ref.dv_level_rows(pairs, 1)) == 1
        # level 2: x + 2y < 2 gives 1, x; 2x + y < 2 gives 1, y
        assert ref.union_of_prefixes_colength(ref.dv_level_rows(pairs, 2)) == 3
        # three variables, x + y + z < 2: the origin and the three variables
        assert ref.union_of_prefixes_colength([((1, 1, 1), 2)]) == 4

    def test_level_rows_round_up(self):
        assert ref.dv_level_rows([((1, 1), F(3, 2))], 3) == [((1, 1), 5)]


class TestMinimalPoints:
    def test_staircase(self):
        rows = [((3, 2), 6)]
        assert ref.minimal_points(ref.rows_box(rows), ref.rows_member(rows)) == {
            (2, 0), (1, 2), (0, 3)}


class TestNewtonPolyhedron:
    def test_two_variables(self):
        # NP(x^2, y^3) = {3x + 2y >= 6}
        assert ref.newton_inequalities([(2, 0), (0, 3)]) == [((3, 2), 6)]
        ineqs = ref.newton_inequalities([(2, 0), (0, 3)])
        assert ref.np_order(ineqs, (5, 0)) == F(5, 2)  # README: nubar(x^5) = 5/2
        assert ref.np_order(ineqs, (1, 1)) == F(5, 6)  # README: nubar(xy) = 5/6

    def test_closure_levels_from_readme(self):
        gens = [(2, 0), (0, 3)]
        assert ref.closure_generators(gens, 1) == {(2, 0), (0, 3), (1, 2)}
        assert ref.closure_generators(gens, 2) == {
            (4, 0), (2, 3), (3, 2), (0, 6), (1, 5)}

    def test_three_variables(self):
        # the closure of (x^2, y^2, z^2) is the square of the maximal ideal
        assert ref.closure_generators([(2, 0, 0), (0, 2, 0), (0, 0, 2)], 1) == {
            (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_redundant_generator(self):
        # xyz lies above the plane 15x + 10y + 6z = 30 through x^2, y^3, z^5,
        # so NP(x^2, y^3, z^5, xyz) is that half-space and nubar(xyz) = 31/30
        ineqs = ref.newton_inequalities([(2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)])
        assert ref.np_order(ineqs, (1, 1, 1)) == F(31, 30)
        assert ref.np_order(ineqs, (2, 0, 0)) == 1
        assert ref.np_order(ineqs, (1, 2, 0)) == F(35, 30)
        closure = ref.closure_generators([(2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)], 1)
        assert {(2, 0, 0), (1, 2, 0), (1, 1, 1), (0, 3, 0), (0, 0, 5)} <= closure
        assert (1, 1, 0) not in closure  # 15 + 10 < 30


class TestMultiplicity:
    def test_one_pair(self):
        # a^d / prod(w)
        assert ref.dv_multiplicity([((1, 1), 1)]) == 1
        assert ref.dv_multiplicity([((1, 2), 1)]) == F(1, 2)
        assert ref.dv_multiplicity([((1, 2, 3), 2)]) == F(8, 6)

    def test_two_lines(self):
        # the region x + 2y < 1 or 2x + y < 1 has area 1/3; e = 2! * 1/3
        assert ref.dv_multiplicity([((1, 2), 1), ((2, 1), 1)]) == F(2, 3)

    def test_crossing_planes(self):
        # vol(S1) = vol(S2) = 1/12, vol(S1 ∩ S2) = 1/18 (two congruent
        # halves of 1/36 either side of x = z), so e = 6 (1/6 - 1/18) = 2/3
        assert ref.dv_multiplicity([((1, 1, 2), 1), ((2, 1, 1), 1)]) == F(2, 3)

    def test_nested_planes(self):
        # 2x + y + z < 1 lies inside x + y + z < 1
        assert ref.dv_multiplicity([((1, 1, 1), 1), ((2, 1, 1), 1)]) == 1

    def test_repeated_plane(self):
        assert ref.dv_multiplicity([((1, 1, 1), 1), ((1, 1, 1), 1)]) == 1
        assert ref.dv_multiplicity([((1, 1, 2), 1), ((2, 2, 4), 2)]) == F(1, 2)

    def test_value_limit(self):
        # vertices (1, 0), (0, 1), (1/3, 1/3); v = x + y is least at the last
        assert ref.dv_value_limit([((1, 2), 1), ((2, 1), 1)], (1, 1)) == F(2, 3)


class TestEquivalence:
    def test_strict_minimizers_drop_the_mediant(self):
        # (3x + 3y)/2 is the average of x + 2y and 2x + y, never below both
        pairs = [((1, 2), F(1)), ((2, 1), F(1)), ((3, 3), F(2))]
        assert ref.strict_minimizers(pairs, 6) == {((1, 2), F(1)), ((2, 1), F(1))}

    def test_primitive(self):
        assert ref.primitive_pairs([((2, 4), F(3))]) == {((1, 2), F(3, 2))}

    def test_counterexample(self):
        f = [((1, 2), 1), ((2, 1), 1)]
        g = [((1, 1), 1)]
        # at (1, 0): omega_F = 1, omega_G = 1; at (1, 1): 3 and 2
        assert ref.is_counterexample(f, 1, g, 1, (1, 0))
        assert not ref.is_counterexample(f, 1, g, 1, (1, 1))
        assert not ref.is_counterexample(f, 1, f, F(3, 2), (4, 7))

    def test_generated_families(self):
        rng = random.Random(5)
        for n in (2, 3):
            pairs = fam.essential_family(rng, n, 3)
            assert ref.strict_minimizers(pairs, fam.GRID) == set(pairs)
            padded = fam.with_redundant(rng, pairs)
            assert len(padded) == 5
            assert ref.strict_minimizers(padded, fam.GRID) == set(pairs)


class TestScalars:
    def test_parse(self):
        assert ref.parse_scalar_text("5/2") == (F(5, 2), 0, 0)
        assert ref.parse_scalar_text("(0+1*sqrt(2))/1") == (0, 1, 2)
        assert ref.parse_scalar_text("(1-3*sqrt(5))/2") == (F(1, 2), F(-3, 2), 5)
        assert fam.scalar_text(F(3, 2), 2) == "(0+3*sqrt(2))/2"

    def test_rees1(self):
        # README: x^2 at degree 1 over ceil(3m/2) + 1 is integral, witness 2
        assert ref.rees1(F(3, 2), 1, 2, 1) == (True, 2)
        assert ref.rees1(1, 1, 1, 1) == (False, None)  # on the slope, c > 0
        assert ref.rees1(1, 0, 1, 1) == (True, 1)
