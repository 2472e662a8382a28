"""Independent ground-truth paths for testing the main pipeline.

Two oracles live here: a closed form for the homology of a
surface-times-circle cup complex, and a plain dense Gaussian elimination
that recomputes field ranks on matrices it builds itself by contraction,
touching neither the compiled boundary maps nor the rank and Smith normal
form code of the main pipeline.
"""

from math import comb

from .exterior import blade_basis, contract
from .homology import AbelianGroup, direct_sum


def _binom(n, m):
    return comb(n, m) if 0 <= m <= n else 0


def surface_circle_group(g, k):
    """Closed-form degree-k group of the genus-g surface-times-circle complex.

    Lower branch (k <= g): free rank C(2g,k) - C(2g,k-2), plus Z/j summands
    with exponent C(2g,k-2j+1) - C(2g,k-2j-1) for 2 <= j <= (k+1)/2.  Upper
    branch (k >= g+1): the j = 0 term is free, j = 1 is trivial, and j >= 2
    contributes Z/j with exponent C(2g,k+2j-1) - C(2g,k+2j+1), with j up to
    (2g+1-k)/2.  Binomials with out-of-range arguments count as zero.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if k < 0 or k > 2 * g + 1:
        raise ValueError(f"degree {k} out of range 0..{2 * g + 1}")
    n = 2 * g
    moduli = []
    if k <= g:
        free = _binom(n, k) - _binom(n, k - 2)
        for j in range(2, (k + 1) // 2 + 1):
            moduli.extend([j] * (_binom(n, k - 2 * j + 1) - _binom(n, k - 2 * j - 1)))
    else:
        free = _binom(n, k - 1) - _binom(n, k + 1)
        for j in range(2, (2 * g + 1 - k) // 2 + 1):
            moduli.extend([j] * (_binom(n, k + 2 * j - 1) - _binom(n, k + 2 * j + 1)))
    return AbelianGroup.from_parts(free, moduli)


def surface_circle_expected(g):
    """Expected (even, odd) cup homology of a genus-g surface times a circle.

    The closed-form groups are graded so that the degree-k piece collects a
    cokernel one degree up and a kernel at degree k; in the cup complex the
    same pieces sit one degree lower, so the parity classes swap: the even
    part of the homology is the sum of the odd-indexed closed-form groups.
    Verified against the direct computation for g <= 6 (the first Z/2
    summand, at genus 3, lands in even exterior degree).
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    groups = [surface_circle_group(g, k) for k in range(2 * g + 2)]
    even = direct_sum(groups[1::2])
    odd = direct_sum(groups[0::2])
    return even, odd


def _dense_rank_char0(data):
    """Textbook Bareiss fraction-free elimination; returns the rank over Q."""
    m = [row[:] for row in data]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, nrows):
            vi = m[i][col]
            row = m[i]
            prow = m[rank]
            for j in range(col, ncols):
                q, r = divmod(pv * row[j] - vi * prow[j], prev)
                assert r == 0, "fraction-free division failed"
                row[j] = q
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def _dense_rank_modp(data, p):
    m = [[v % p for v in row] for row in data]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        for i in range(rank + 1, nrows):
            c = m[i][col] * inv % p
            if c:
                row = m[i]
                prow = m[rank]
                for j in range(col, ncols):
                    row[j] = (row[j] - c * prow[j]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def contraction_matrix(f, k):
    """Dense matrix of d_k (rows of list) built blade by blade with :func:`contract`."""
    rows = blade_basis(f.rank, k - 3)
    cols = blade_basis(f.rank, k)
    row_index = {blade: i for i, blade in enumerate(rows)}
    data = [[0] * len(cols) for _ in rows]
    for c, blade in enumerate(cols):
        for rest, val in contract(f.coeffs, blade).items():
            data[row_index[rest]][c] = val
    return data


def field_homology_oracle(f, characteristic):
    """Per-degree homology dimensions over Q or F_p by dense elimination.

    Builds its own matrices by contraction (:func:`contraction_matrix`) and
    shares no matrix construction, rank or normal-form code with the main
    pipeline.
    """
    if characteristic != 0:
        if characteristic < 2 or any(characteristic % d == 0
                                     for d in range(2, int(characteristic ** 0.5) + 1)):
            raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
    b = f.rank
    ranks = {}
    for k in range(3, b + 1):
        data = contraction_matrix(f, k)
        if characteristic == 0:
            ranks[k] = _dense_rank_char0(data)
        else:
            ranks[k] = _dense_rank_modp(data, characteristic)
    return [comb(b, k) - ranks.get(k, 0) - ranks.get(k + 3, 0) for k in range(b + 1)]
