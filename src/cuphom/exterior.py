"""Exterior algebra scaffolding: blades, chains, and contraction by a 3-form.

A *blade* is a basis monomial e_{i1} ∧ ... ∧ e_{ik} of the k-th exterior
power of a rank-b free abelian group, stored as a strictly increasing tuple
of indices in 1..b; the empty tuple is the generator of degree 0.  A *chain*
is a dict mapping same-degree blades to nonzero integer coefficients.

Everything here is a pure function on immutable values.
"""

from functools import lru_cache
from itertools import combinations


@lru_cache(maxsize=None)
def blade_basis(b, k):
    """All C(b, k) degree-k blades over rank b, in lexicographic order.

    This order is the row/column order of every matrix in the package.
    Out-of-range k gives an empty basis, not an error.
    """
    if k < 0 or k > b:
        return ()
    return tuple(combinations(range(1, b + 1), k))


def contract(coeffs, blade):
    """Contract a 3-form against a single blade.

    ``coeffs`` maps increasing triples (i, j, k) to integer coefficients
    mu(e_i, e_j, e_k).  The result is the chain sending each blade obtained
    by deleting the elements at positions p1 < p2 < p3 (1-based within
    ``blade``) to (-1)^(p1+p2+p3) * mu(s_p1, s_p2, s_p3), summed over all
    position triples.  Degrees below 3 contract to the zero chain.
    """
    out = {}
    n = len(blade)
    for pos in combinations(range(n), 3):
        a = coeffs.get((blade[pos[0]], blade[pos[1]], blade[pos[2]]))
        if not a:
            continue
        # 1-based positions sum to pos sum + 3, flipping the parity.
        if (pos[0] + pos[1] + pos[2]) % 2 == 0:
            a = -a
        rest = tuple(x for i, x in enumerate(blade) if i not in pos)
        c = out.get(rest, 0) + a
        if c:
            out[rest] = c
        else:
            del out[rest]
    return out

