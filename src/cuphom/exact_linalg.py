"""Exact integer linear algebra: Smith normal form and ranks over Q or F_p.

Every matrix is a list of sparse rows, one ``{column: value}`` dict per row
with zero entries left out; row i of the list is row i of the matrix.  All
arithmetic uses Python's arbitrary-precision integers; intermediate values
of an elimination are allowed to grow without any overflow semantics.

Smith normal form runs in two phases (Dumas, Saunders and Villard, "On
efficient sparse integer matrix Smith normal form computations", J.
Symbolic Comput. 2001).  Boundary maps have entries ±(form coefficients),
so most pivots are units: these are eliminated on the sparse rows, each
giving an invariant factor 1, and only the small block left over, which has
no unit entry, is densified for the smallest-pivot elimination.
"""

from dataclasses import dataclass
from math import gcd, isqrt


@dataclass(frozen=True)
class SNFResult:
    """Rank and invariant factors d_1 | d_2 | ... | d_r, all positive.

    Factors equal to 1 are kept so that ``len(invariant_factors) == rank``;
    callers building torsion strip them.
    """

    rank: int
    invariant_factors: tuple


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def _divisibility_chain(values):
    """Normalize a multiset of nonzero moduli into d_1 | d_2 | ... order.

    Repeatedly replaces a non-dividing pair (a, b) with (gcd, lcm); this is
    exact on isomorphism classes (CRT) and terminates.
    """
    vals = [abs(v) for v in values]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if b % a:
                    g = gcd(a, b)
                    vals[i], vals[j] = g, a // g * b
                    changed = True
    vals.sort()
    return vals


def _round_div(a, b):
    """Quotient with minimal-magnitude remainder: |a - qb| <= |b| / 2."""
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def _dense_snf(rows):
    """Smallest-pivot Smith normal form of nonempty sparse rows, densified over used columns."""
    used = sorted({j for r in rows for j in r})
    D = [[r.get(j, 0) for j in used] for r in rows]
    m, n = len(D), len(used)

    for k in range(min(m, n)):
        while True:
            # Pivot on the smallest remaining entry; rounded-quotient
            # reductions then shrink the pivot like the Euclidean algorithm,
            # which keeps intermediate entries from exploding.
            best = None
            for i in range(k, m):
                Di = D[i]
                for j in range(k, n):
                    v = Di[j]
                    if v and (best is None or abs(v) < best[0]):
                        best = (abs(v), i, j)
            if best is None:
                break
            _, bi, bj = best
            if bi != k:
                D[k], D[bi] = D[bi], D[k]
            if bj != k:
                for row in D:
                    row[k], row[bj] = row[bj], row[k]
            p = D[k][k]
            clean = True
            Dk = D[k]
            for i in range(k + 1, m):
                a = D[i][k]
                if a:
                    q = _round_div(a, p)
                    if q:
                        D[i] = [vi - q * vk for vi, vk in zip(D[i], Dk)]
                    if D[i][k]:
                        clean = False
            for j in range(k + 1, n):
                a = Dk[j]
                if a:
                    q = _round_div(a, p)
                    if q:
                        for row in D:
                            row[j] -= q * row[k]
                    if Dk[j]:
                        clean = False
            if clean:
                break
        if D[k][k] == 0:
            break

    diag = [D[i][i] for i in range(min(m, n)) if D[i][i] != 0]
    factors = _divisibility_chain(diag)
    return SNFResult(rank=len(factors), invariant_factors=tuple(factors))


def smith_normal_form(rows):
    """Invariant factors of an integer matrix of sparse rows, in divisibility order.

    Two phases.  The sparse phase eliminates unit pivots: while some entry
    is ±1, it takes the shortest row holding one and, in that row, the ±1
    column with the fewest entries, clears that column from every other row
    by row operations and drops the pivot row and column as one invariant
    factor 1.  Dropping them is exact: once the pivot column is zero outside
    the pivot row, the column operations that clear the pivot row touch no
    other row, so the matrix is ±1 ⊕ (the rest) up to unimodular operations.
    The dense phase densifies the rest over the columns it uses (zero rows
    and columns carry no invariant factors) and eliminates by smallest
    pivots.  ``rows`` is left unchanged.
    """
    rows = {i: dict(r) for i, r in enumerate(rows) if r}
    col_rows = {}
    for i, r in rows.items():
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    units = 0
    while True:
        pi = min((i for i, r in rows.items() if 1 in r.values() or -1 in r.values()),
                 key=lambda i: len(rows[i]), default=None)
        if pi is None:
            break
        prow = rows.pop(pi)
        pc = min((j for j, v in prow.items() if v in (1, -1)), key=lambda j: len(col_rows[j]))
        pv = prow[pc]
        for j in prow:
            col_rows[j].discard(pi)
        for i in col_rows.pop(pc):
            row = rows[i]
            c = row.pop(pc) * pv  # rv / pv, as pv = ±1
            for j, v in prow.items():
                if j == pc:
                    continue
                w = row.get(j, 0) - c * v
                if w:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = w
                else:
                    del row[j]
                    col_rows[j].discard(i)
            if not row:
                del rows[i]
        units += 1
    rest = _dense_snf(list(rows.values()))
    return SNFResult(rank=units + rest.rank,
                     invariant_factors=(1,) * units + rest.invariant_factors)


def _strip_content(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def sparse_product(A, B):
    """Product of two matrices given as sparse rows; ``B[c]`` is row c of B."""
    out = []
    for row in A:
        acc = {}
        for c, v in row.items():
            for j, w in B[c].items():
                acc[j] = acc.get(j, 0) + v * w
        out.append({j: v for j, v in acc.items() if v})
    return out


def _rank_rational(rows):
    """Rank over Q by integer-preserving sparse elimination; consumes ``rows``.

    Rows are {column: value} dicts with their content divided out; the row
    update (pv/g)*row - (rv/g)*pivot is an invertible operation over Q, so the
    rank is exact.
    """
    rows = [_strip_content(r) for r in rows if r]
    rank = 0
    while len(rows) > 1:
        # Pivot row: fewest entries, then smallest magnitude, first on ties.
        keys = [(len(r), min(map(abs, r.values()))) for r in rows]
        prow = rows.pop(keys.index(min(keys)))
        pc, pv = min(prow.items(), key=lambda it: (abs(it[1]), it[0]))
        rank += 1
        nxt = []
        for row in rows:
            rv = row.pop(pc, None)
            if rv is None:
                nxt.append(row)
                continue
            g = gcd(pv, rv)
            a, c = pv // g, rv // g
            new = {j: a * v for j, v in row.items()}
            for j, v in prow.items():
                if j == pc:
                    continue
                w = new.get(j, 0) - c * v
                if w:
                    new[j] = w
                else:
                    new.pop(j, None)
            if new:
                nxt.append(_strip_content(new))
        rows = nxt
    return rank + len(rows)


def _rank_mod_p(rows, p):
    """Rank over F_p of sparse rows with entries in 1..p-1; consumes ``rows``."""
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pi = min(range(len(rows)), key=lambda i: len(rows[i]))
        prow = rows.pop(pi)
        pc, pv = min(prow.items())
        inv = pow(pv, -1, p)
        rank += 1
        nxt = []
        for row in rows:
            rv = row.pop(pc, None)
            if rv is None:
                nxt.append(row)
                continue
            c = rv * inv % p
            for j, v in prow.items():
                if j == pc:
                    continue
                w = (row.get(j, 0) - c * v) % p
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
            if row:
                nxt.append(row)
        rows = nxt
    return rank


def rank_over_field(rows, characteristic):
    """Rank of sparse rows over Q (characteristic 0) or over F_p (characteristic p).

    The rows are consumed; over F_p their entries must already lie in 1..p-1.
    """
    if characteristic and not is_prime(characteristic):
        raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
    if characteristic == 0:
        return _rank_rational(rows)
    return _rank_mod_p(rows, characteristic)
