import random
from fractions import Fraction

import samfilt
from samfilt import _kernels as kernels

from oracles import brute_colength, minimal_points, staircase_by_each_y


def canon(points):
    """The library's canonical antichain order: (total degree, lex)."""
    return sorted(minimal_points(points), key=lambda p: (sum(p), p))


def rand_points(rnd, n, k, hi):
    return [tuple(rnd.randint(0, hi) for _ in range(n)) for _ in range(k)]


def rand_rows(rnd, k, whi=4, chi=25):
    return sorted(
        {
            (rnd.randint(1, whi), rnd.randint(1, whi), rnd.randint(0, chi))
            for _ in range(k)
        }
    )


def brute_staircase(rows, xmin, ymin):
    """Minimal points of {x>=xmin, y>=ymin, w1x+w2y>=c for all rows}."""
    bound = xmin + ymin + sum(c for _, _, c in rows) + 2
    members = []
    for x in range(xmin, bound):
        for y in range(ymin, bound):
            if all(w1 * x + w2 * y >= c for w1, w2, c in rows):
                members.append((x, y))
    return canon(members)


def crossing_rows(rnd, kind):
    """1-6 rows through random points of a small box, so their lines cross
    inside the staircase.  "tie": every row through one lattice point, with
    some lines given twice, scaled, so the envelope ties there; "steep":
    every row has w2 >= w1; "flat": every row has w2 < w1."""
    whi = rnd.choice((3, 6, 12))
    common = (rnd.randint(0, 10), rnd.randint(0, 10))
    rows = []
    for _ in range(rnd.randint(1, 6)):
        w1, w2 = rnd.randint(1, whi), rnd.randint(1, whi)
        if kind == "steep" and w2 < w1 or kind == "flat" and w2 >= w1:
            w1, w2 = w2 + (kind == "flat"), w1
        px, py = common if kind == "tie" else (rnd.randint(0, 10), rnd.randint(0, 10))
        rows.append((w1, w2, w1 * px + w2 * py))
        if kind == "tie" and rnd.random() < 0.3:
            rows.append((2 * w1, 2 * w2, 2 * (w1 * px + w2 * py)))
    return rows, common


def is_staircase_of(rows, xmin, ymin, gens):
    """Whether gens, in ascending y, are the minimal generators: the first
    sits at ymin and the last at xmin, each lies in the set, and x may not
    drop before the next generator's y.  This decides the staircase
    without a scan over y."""
    def member(x, y):
        return all(w1 * x + w2 * y >= c for w1, w2, c in rows)

    pairs = list(zip(gens, gens[1:]))
    return (
        gens[0][1] == ymin and gens[-1][0] == xmin
        and all(member(x, y) for x, y in gens)
        and all(x1 < x0 and y1 > y0 and not member(x0 - 1, y1 - 1)
                for (x0, y0), (x1, y1) in pairs)
    )


def brute_union_count(rows):
    """|{(x,y) >= 0 : w1x + w2y < c for some row}| by enumeration."""
    bound = max(c for _, _, c in rows) + 1
    count = 0
    for x in range(bound):
        for y in range(bound):
            if any(w1 * x + w2 * y < c for w1, w2, c in rows):
                count += 1
    return count


class TestReduceAntichainPure:
    def test_empty(self):
        assert kernels.reduce_antichain([]) == []

    def test_single(self):
        assert kernels.reduce_antichain([(2, 3)]) == [(2, 3)]

    def test_dominated_dropped_degree_order(self):
        got = kernels.reduce_antichain([(1, 1), (2, 1), (1, 2), (0, 3)])
        assert got == [(1, 1), (0, 3)]

    def test_duplicates_collapse(self):
        assert kernels.reduce_antichain([(1, 2), (1, 2)]) == [(1, 2)]

    def test_matches_brute_minimal_points(self):
        rnd = random.Random(11)
        for n in (1, 2, 3, 4):
            for _ in range(50):
                pts = rand_points(rnd, n, rnd.randint(0, 25), 6)
                assert kernels.reduce_antichain(pts) == canon(pts)

    def test_3d_equal_x_ties(self):
        # (2, 3, 1) takes the place of the kept (2, 5) in the sweep's
        # staircase and dominates (2, 4, 2) and (2, 3, 3); at z = 6 the
        # point with the same x and the smaller y dominates the other
        pts = [(2, 5, 0), (2, 4, 2), (2, 3, 1), (2, 3, 3), (1, 9, 4), (5, 1, 6), (5, 0, 6)]
        assert kernels.reduce_antichain(pts) == [(2, 3, 1), (2, 5, 0), (5, 0, 6), (1, 9, 4)]

    def test_deep_sets_with_ties(self):
        # up to 500 points, coordinates <= 40, each coordinate drawn from a
        # few values so that equal x at equal z (and every other tie) is
        # common; n = 3 runs the sweep, n = 4 the quadratic scan
        rnd = random.Random(23)
        for n in (3, 4):
            for _ in range(25):
                values = [rnd.sample(range(41), rnd.randint(1, 8)) for _ in range(n)]
                k = rnd.randint(2, 500)
                pts = [tuple(rnd.choice(v) for v in values) for _ in range(k)]
                assert kernels.reduce_antichain(pts) == canon(pts)
            for _ in range(10):
                pts = rand_points(rnd, n, rnd.randint(2, 500), 40)
                assert kernels.reduce_antichain(pts) == canon(pts)


class TestHelpersPure:
    def test_any_le(self):
        pts = [(2, 0), (0, 3)]
        assert kernels.any_le(pts, (2, 5))
        assert not kernels.any_le(pts, (1, 2))

    def test_colength_2d_box(self):
        # (x^2, y^3): complement {0,1} x {0,1,2}, six monomials
        assert kernels.colength_2d([(0, 3), (2, 0)]) == 6

    def test_colength_2d_matches_enumeration(self):
        rnd = random.Random(13)
        for _ in range(60):
            gens = rand_points(rnd, 2, rnd.randint(1, 5), 7)
            gens.append((rnd.randint(0, 7), 0))
            gens.append((0, rnd.randint(0, 7)))
            gens = minimal_points(gens)
            assert kernels.colength_2d(gens) == brute_colength(gens)

    def test_staircase_gens_halfplane(self):
        # 3x + 2y >= 6
        assert kernels.staircase_gens_2d([(3, 2, 6)]) == [(2, 0), (1, 2), (0, 3)]

    def test_staircase_gens_with_mins(self):
        assert kernels.staircase_gens_2d([(3, 2, 6)], 1, 1) == [(2, 1), (1, 2)]

    def test_staircase_empty_rows_gives_corner(self):
        assert kernels.staircase_gens_2d([], 2, 3) == [(2, 3)]

    def test_staircase_matches_enumeration(self):
        # generator content must match; the kernel's own order (ascending
        # second coordinate) is canonicalized later by the ideal type
        rnd = random.Random(41)
        for _ in range(60):
            rows = rand_rows(rnd, rnd.randint(1, 4))
            xm, ym = rnd.randint(0, 3), rnd.randint(0, 3)
            got = kernels.staircase_gens_2d(rows, xm, ym)
            assert sorted(got) == sorted(brute_staircase(rows, xm, ym))
            assert [g[1] for g in got] == sorted(g[1] for g in got)

    def test_staircase_matches_scan_over_every_y(self):
        # the jump over flat runs must give exactly the old per-y scan,
        # order included; skewed weights make long flat runs
        rnd = random.Random(47)
        for _ in range(10_000):
            whi = rnd.choice((4, 40))
            rows = rand_rows(rnd, rnd.randint(0, 4), whi=whi, chi=10 * whi)
            xm, ym = rnd.randint(0, 3), rnd.randint(0, 3)
            assert kernels.staircase_gens_2d(rows, xm, ym) == staircase_by_each_y(
                rows, xm, ym), (rows, xm, ym)

    def test_staircase_cost_follows_output_not_largest_y(self):
        # x + y/10^30 >= 3: four generators, y up to 3*10^30
        big = 10**30
        assert kernels.staircase_gens_2d([(big, 1, 3 * big)]) == [
            (3, 0), (2, big), (1, 2 * big), (0, 3 * big)]

    def test_staircase_envelope_matches_scan_over_every_y(self):
        # one row sets the least x on each interval of y; crossing rows,
        # ties on the envelope and both ways of generating an interval
        # (w2 >= w1: every y; w2 < w1: every x) must give the old per-y
        # scan, order included
        rnd = random.Random(59)
        seen = {"tie": 0, "both regimes": 0, "corner": 0}
        for i in range(12_000):
            kind = ("cross", "tie", "steep", "flat")[i % 4]
            rows, (px, py) = crossing_rows(rnd, kind)
            xm, ym = rnd.randint(0, 4), rnd.randint(0, 4)
            got = kernels.staircase_gens_2d(rows, xm, ym)
            assert got == staircase_by_each_y(rows, xm, ym), (rows, xm, ym)
            steps = {(x0 - x1 > 1, y1 - y0 > 1) for (x0, y0), (x1, y1) in zip(got, got[1:])}
            seen["both regimes"] += {(True, False), (False, True)} <= steps
            seen["corner"] += xm > 0 and ym > 0
            if kind == "tie" and len({Fraction(w2, w1) for w1, w2, _ in rows}) > 1:
                # rows of two slopes meet on the envelope at (px, py)
                seen["tie"] += ym <= py and px > xm
        assert min(seen.values()) > 1000, seen

    def test_staircase_with_1e30_weights(self):
        # 10^30 on y gives a generator at every y, 10^30 on x one at every
        # x: the scan runs in the first case, its mirror checks the second;
        # rows of both kinds together are checked by is_staircase_of
        big = 10**30
        rnd = random.Random(61)
        for _ in range(1000):
            rows = []
            for _ in range(rnd.randint(1, 4)):
                w1, w2 = rnd.randint(1, 5), rnd.randint(1, 5) * big + rnd.randint(0, 3)
                px, py = rnd.randint(0, 6), rnd.randint(0, 6)
                rows.append((w1, w2, w1 * px + w2 * py))
            xm, ym = rnd.randint(0, 3), rnd.randint(0, 3)
            want = staircase_by_each_y(rows, xm, ym)
            assert kernels.staircase_gens_2d(rows, xm, ym) == want, (rows, xm, ym)
            mirror = [(w2, w1, c) for w1, w2, c in rows]
            assert kernels.staircase_gens_2d(mirror, ym, xm) == [(y, x) for x, y in want[::-1]]
            mixed = rows[: len(rows) // 2 + 1] + mirror[len(rows) // 2 + 1:]
            assert is_staircase_of(mixed, xm, ym, kernels.staircase_gens_2d(mixed, xm, ym))
        assert kernels.staircase_gens_2d([(1, big, 3 * big)]) == [
            (3 * big, 0), (2 * big, 1), (big, 2), (0, 3)]

    def test_prefix_union_count_halfplanes(self):
        # points with 3x+2y < 6: (0,0),(0,1),(0,2),(1,0),(1,1) -> 5
        assert kernels.prefix_union_count_2d([(3, 2, 6)]) == 5

    def test_prefix_union_matches_enumeration(self):
        rnd = random.Random(43)
        for _ in range(60):
            rows = rand_rows(rnd, rnd.randint(1, 4))
            assert kernels.prefix_union_count_2d(rows) == brute_union_count(rows)


def test_implementation_label():
    assert samfilt.kernel_implementation == "pure"
