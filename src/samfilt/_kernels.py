"""Integer kernels for the hot lattice loops.

Antichain reduction, divisibility tests, 2-d colengths and staircases of
monomial ideals.  All functions take plain ints and tuples.

reduce_antichain costs, for k distinct points in dimension n: one sort
plus a linear scan for n = 1 and n = 2; a sweep of O(k log k) comparisons
for n = 3 (Kung, Luccio & Preparata 1975); and a scan comparing each
point with every kept one, quadratic in the worst case, for n >= 4.
Where the order is known, callers skip it: a 2-d product of ideals with
m and k generators merges the k shifted staircases (one sort of k*m
points that form k sorted runs, O(k*m log k)) and scans them once; the
colength in n >= 3 variables reduces one slab per distinct generator
height of the last coordinate, not one per height below its pure power.
The 2-d staircase of k rows costs O(k^2 + output), one interval of y per
row on the upper envelope of the rows' lines.
"""

from __future__ import annotations

import bisect
from typing import Sequence


def reduce_antichain(points: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Minimal elements of a set of exponent vectors under componentwise <=.

    Output is deduplicated and sorted by (total degree, lex).
    """
    uniq = set(points)
    if len(uniq) < 2:
        return list(uniq)
    n = len(next(iter(uniq)))
    if n == 2:
        # staircase scan in lex order: keep a running minimum of the second
        # coordinate per strictly increasing first coordinate
        out: list[tuple[int, ...]] = []
        for p in sorted(uniq):
            if out and out[-1][1] <= p[1]:
                continue
            out.append(p)
        out.sort(key=sum)  # stable: ties keep their lex order
        return out
    if n == 3:
        # sweep in (z, x, y) order, so every point that dominates p comes
        # before p; xs/ys hold the 2-d staircase of the kept points, xs
        # increasing and ys decreasing.  p is dominated exactly when the
        # kept entry with the largest x' <= x has y' <= y.  A kept p
        # replaces the entries it dominates in the plane (x' >= x and
        # y' >= y): a contiguous run starting at the first x' >= x.
        xs: list[int] = []
        ys: list[int] = []
        out = []
        for p in sorted(uniq, key=lambda p: (p[2], p[0], p[1])):
            x, y = p[0], p[1]
            i = bisect.bisect_right(xs, x)
            if i and ys[i - 1] <= y:
                continue
            out.append(p)
            if i and xs[i - 1] == x:
                i -= 1
            j = i
            while j < len(xs) and ys[j] >= y:
                j += 1
            xs[i:j] = [x]
            ys[i:j] = [y]
        out.sort(key=lambda p: (sum(p), p))
        return out
    pts = sorted(uniq, key=lambda p: (sum(p), p))
    out = []
    for p in pts:
        dominated = False
        for q in out:
            le = True
            for a, b in zip(q, p):
                if a > b:
                    le = False
                    break
            if le:
                dominated = True
                break
        if not dominated:
            out.append(p)
    return out


def any_le(points: Sequence[tuple[int, ...]], e: tuple[int, ...]) -> bool:
    """True if some point is componentwise <= e."""
    for p in points:
        ok = True
        for a, b in zip(p, e):
            if a > b:
                ok = False
                break
        if ok:
            return True
    return False


def colength_2d(gens: Sequence[tuple[int, int]]) -> int:
    """Lattice points below a 2-d staircase.

    gens must be the minimal generators of an ideal containing pure powers
    of both variables (an antichain, any order).
    """
    pts = sorted(gens)  # x ascending, y descending along the antichain
    total = 0
    for i in range(len(pts) - 1):
        total += (pts[i + 1][0] - pts[i][0]) * pts[i][1]
    return total


def prefix_union_count_2d(rows: Sequence[tuple[int, int, int]]) -> int:
    """Count integer points (x, y) >= 0 with w1*x + w2*y < c for some row.

    Each row is (w1, w2, c) with w1, w2 >= 1.  The union of the prefix
    slabs in each fiber y = const is again a prefix, so the count per fiber
    is the max of the per-row counts.
    """
    ymax = 0
    for w1, w2, c in rows:
        if c > 0:
            yr = (c + w2 - 1) // w2  # number of fibers with a nonempty slab
            if yr > ymax:
                ymax = yr
    total = 0
    for y in range(ymax):
        best = 0
        for w1, w2, c in rows:
            rem = c - w2 * y
            if rem > 0:
                cnt = (rem + w1 - 1) // w1
                if cnt > best:
                    best = cnt
        total += best
    return total


def staircase_gens_2d(
    rows: Sequence[tuple[int, int, int]], xmin: int = 0, ymin: int = 0
) -> list[tuple[int, int]]:
    """Minimal generators of {e : e1 >= xmin, e2 >= ymin, w1*e1 + w2*e2 >= c}.

    Each row is (w1, w2, c) with w1, w2 >= 1; the generators come in
    ascending y.  The least x allowed at y is the ceiling of the upper
    envelope max_r (c_r - w2_r*y)/w1_r, so one row sets it on each
    interval of y, the steepest rows first.  On its interval a row with
    w2 >= w1 drops x at every y, and one with w2 < w1 passes through every
    x between the interval's ends, so each interval is one comprehension
    and the cost is O(k^2 + output), not the largest y.
    """
    y_end = ymin  # the least y >= ymin that every row allows at xmin
    for w1, w2, c in rows:
        rem = c - w1 * xmin
        if rem > 0:
            yl = -(-rem // w2)
            if yl > y_end:
                y_end = yl
    out: list[tuple[int, int]] = []
    y = ymin
    while y < y_end:
        # the row with the largest (c - w2*y)/w1.  Its interval ends where
        # a flatter row first strictly overtakes it, so one that ties at y
        # takes over at y + 1, with the same x at y either way.
        w1, w2, c = rows[0]
        for r1, r2, rc in rows:
            if (rc - r2 * y) * w1 > (c - w2 * y) * r1:
                w1, w2, c = r1, r2, rc
        end = y_end
        for r1, r2, rc in rows:
            den = w2 * r1 - r2 * w1
            if den > 0:
                t = (c * r1 - rc * w1) // den + 1
                if t < end:
                    end = t
        if w2 >= w1:  # x drops at every y, also from the last interval
            out += [(-((w2 * t - c) // w1), t) for t in range(y, end)]
        else:
            x0 = -((w2 * y - c) // w1)
            if not out or x0 < out[-1][0]:
                out.append((x0, y))
            x1 = -((w2 * (end - 1) - c) // w1)
            out += [(u, -((w1 * u - c) // w2)) for u in range(x0 - 1, x1 - 1, -1)]
        y = end
    out.append((xmin, y_end))
    return out
