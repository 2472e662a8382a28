"""Alternating binomial sums S(b, j), the bound L(b), and their identities.

S(b, j) is the Euler characteristic of the mod-3 subcomplex of residue j;
the direct binomial sum is ground truth here, and every closed form or
recursion is checked against it.
"""

from math import comb

from .forms import _support_pieces
from .report import CheckReport


def euler_sum(b, j):
    """S(b, j) = sum_t (-1)^t C(b, 3t + j), computed directly."""
    if j not in (0, 1, 2):
        raise ValueError(f"residue must be 0, 1 or 2, got {j}")
    if b < 1:
        raise ValueError(f"rank must be >= 1, got {b}")
    total = 0
    sign = 1
    for m in range(j, b + 1, 3):
        total += sign * comb(b, m)
        sign = -sign
    return total


def lower_bound_L(b):
    """Lower bound L(b) <= h at rank b: 3^((b-1)/2) odd, 2*3^(b/2-1) even.

    Attained at b = 3, 4, 6, 7 and 8, but not at b = 5, where the forms of
    the three orbits give h = 10, 12 and 16 > L(5) = 9.  There the middle
    map d_4 is skew-symmetric and 5 x 5
    (:func:`cuphom.cup_complex.skew_rows`), so its rank is even and at most
    4: H_1 and H_4 are nonzero, while S(5, 1) = 0, which gives
    h >= L(5) + 1 = 10.
    """
    if b < 1:
        raise ValueError(f"rank must be >= 1, got {b}")
    if b % 2:
        return 3 ** ((b - 1) // 2)
    return 2 * 3 ** (b // 2 - 1)


def verify_identities(b_max):
    """Check the S(b, j) identity zoo for every 1 <= b <= b_max.

    Covers: the telescoping identity S0 - S1 + S2 = 0, the three one-step
    recursions, the absolute-value totals 2*3^((b-1)/2) (odd) and
    4*3^(b/2-1) (even) and their restatement as 2*L(b), the vanishing and
    (anti)symmetry relations for odd b by residue mod 6, and the magnitudes
    of the individual sums.
    """
    if b_max < 2:
        raise ValueError("b_max must be >= 2")
    rep = CheckReport(f"S(b, j) identities up to b = {b_max}")

    def check(name, ok, b, detail=""):
        rep.add(f"{name} (b={b})", ok, detail)

    S = {}
    for b in range(1, b_max + 1):
        S[b] = tuple(euler_sum(b, j) for j in range(3))
        s0, s1, s2 = S[b]
        check("S0 - S1 + S2 = 0", s0 - s1 + s2 == 0, b, f"{s0} - {s1} + {s2}")
        if b >= 2:
            p0, p1, p2 = S[b - 1]
            check("S(b,0) = S(b-1,0) - S(b-1,2)", s0 == p0 - p2, b)
            check("S(b,1) = S(b-1,0) + S(b-1,1)", s1 == p0 + p1, b)
            check("S(b,2) = S(b-1,1) + S(b-1,2)", s2 == p1 + p2, b)
        total = abs(s0) + abs(s1) + abs(s2)
        if b % 2:
            check("|S0|+|S1|+|S2| = 2*3^((b-1)/2)", total == 2 * 3 ** ((b - 1) // 2), b,
                  str(total))
        else:
            check("|S0|+|S1|+|S2| = 4*3^(b/2-1)", total == 4 * 3 ** (b // 2 - 1), b,
                  str(total))
        check("|S0|+|S1|+|S2| = 2*L(b)", total == 2 * lower_bound_L(b), b)
        if b % 2:
            mag = 3 ** ((b - 1) // 2)
            if b % 6 == 1:
                ok = s2 == 0 and s0 == s1 and abs(s0) == mag
                check("b=1 mod 6: S2 = 0, S0 = S1 = +/-3^((b-1)/2)", ok, b, str(S[b]))
            elif b % 6 == 3:
                ok = s0 == 0 and s1 == s2 and abs(s1) == mag
                check("b=3 mod 6: S0 = 0, S1 = S2 = +/-3^((b-1)/2)", ok, b, str(S[b]))
            else:
                ok = s1 == 0 and s0 == -s2 and abs(s0) == mag
                check("b=5 mod 6: S1 = 0, S0 = -S2 = +/-3^((b-1)/2)", ok, b, str(S[b]))
        else:
            # Even ranks follow from the odd ones through the recursions: the
            # residue b/2 mod 3 slot carries 2*3^(b/2-1), the others 3^(b/2-1).
            mag = 3 ** (b // 2 - 1)
            double_slot = {0: 0, 2: 1, 4: 2}[b % 6]
            mags = tuple(abs(s) for s in S[b])
            expect = tuple(2 * mag if j == double_slot else mag for j in range(3))
            check("even b magnitudes (2,1,1) * 3^(b/2-1)", mags == expect, b,
                  f"{mags} vs {expect}")
    return rep


def bounds_report(f, h):
    """Test the invariant h of a form against the proven bounds.

    When the support of f splits into at least two blocks
    (:func:`cuphom.forms._support_pieces`) that are not exactly two of odd
    rank, f is a connected sum to which the reducible lower bound
    (4/3) L(b) applies as well.
    """
    b = f.rank
    if b < 1:
        raise ValueError("bounds are stated for rank >= 1")
    rep = CheckReport(f"bounds for rank {b}")
    L = lower_bound_L(b)
    upper = 2 ** (b - 1)
    rep.add(f"L({b}) <= h", L <= h, f"{L} <= {h}")
    rep.add(f"h <= 2^{b - 1}", h <= upper, f"{h} <= {upper}")
    if not f.is_zero and b >= 4:
        rep.add("nonzero form: h <= 2^(b-1) - 2", h <= upper - 2, f"{h} <= {upper - 2}")
    else:
        rep.add("nonzero form: h <= 2^(b-1) - 2", True, "skipped (zero form or b < 4)")
    # Two pieces must not both be odd; three or more pieces (each of rank
    # >= 1) can always be regrouped into two factors that are not both odd.
    piece_ranks = [len(piece) for piece in _support_pieces(f)]
    if len(piece_ranks) >= 3 or (len(piece_ranks) == 2 and not all(r % 2 for r in piece_ranks)):
        # 3h >= 4 L(b) avoids the fraction 4/3.
        rep.add("connected sum: h >= (4/3) L(b)", 3 * h >= 4 * L, f"3*{h} >= 4*{L}")
    else:
        rep.add("connected sum: h >= (4/3) L(b)", True, "skipped (not an applicable sum)")
    return rep
