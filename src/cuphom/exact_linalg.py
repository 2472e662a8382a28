"""Exact integer linear algebra: Smith normal form and ranks over Q or F_p.

Every matrix is a list of sparse rows, one ``{column: value}`` dict per row
with zero entries left out; row i of the list is row i of the matrix.  All
arithmetic uses Python's arbitrary-precision integers; intermediate values
of an elimination are allowed to grow without any overflow semantics.

Smith normal form and the rank over Q share one unit phase (the sparse
phase of Dumas, Saunders and Villard, "On efficient sparse integer matrix
Smith normal form computations", J. Symbolic Comput. 2001).  Boundary maps
have entries ±(form coefficients), so most pivots are units: these are
eliminated on the sparse rows by :func:`_eliminate_units`, each giving an
invariant factor 1 and one unit of rank.  Two finishers take the block left
over, which has no unit entry: Smith normal form densifies it for the
smallest-pivot elimination, and the Q-rank eliminates it fraction-free on
the sparse rows.  Ranks over F_p do not use the unit phase, so the checks
that compare them with Smith normal form stay independent of it.
"""

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
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


def _has_unit(row):
    values = row.values()
    return 1 in values or -1 in values


def _eliminate_units(rows):
    """Eliminate unit pivots on sparse rows; returns (units eliminated, residual rows).

    While some entry is ±1, take the shortest row holding one (the lowest row
    index on ties) and, in that row, the ±1 column with the fewest entries;
    clear that column from every other row by the row operations
    ``row -= (rv·pv)·prow`` and drop the pivot row and column.  The pivot
    column is then zero outside the pivot row, so the column operations that
    would clear the pivot row touch no other row: the matrix is ±1 ⊕ (the
    rest) up to unimodular operations, and the dropped pair is one invariant
    factor 1 and one unit of rank.  The residual is the nonempty rows left,
    in their original order, with no ±1 entry.

    The candidate pivot rows sit in a heap of (length, row index); an entry
    whose row has since been eliminated, changed length or lost its units is
    skipped when popped, and every changed row that holds a unit is pushed
    again.  ``rows`` is consumed.
    """
    live = {}
    heap = []
    for i, r in enumerate(rows):
        if r:
            live[i] = r
            if _has_unit(r):
                heap.append((len(r), i))
    if not heap:
        return 0, list(live.values())
    if len(live) == 1:  # one row holding a unit: nothing else to clear
        return 1, []
    heapify(heap)
    col_rows = {}
    for i, r in live.items():
        for j in r:
            if j in col_rows:
                col_rows[j].add(i)
            else:
                col_rows[j] = {i}
    units = 0
    while heap:
        n, pi = heappop(heap)
        prow = live.get(pi)
        if prow is None or len(prow) != n or not _has_unit(prow):
            continue
        del live[pi]
        pc = min((j for j, v in prow.items() if v in (1, -1)), key=lambda j: len(col_rows[j]))
        pv = prow[pc]
        for j in prow:
            col_rows[j].discard(pi)
        for i in col_rows.pop(pc):
            row = live[i]
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
                del live[i]
            elif _has_unit(row):
                heappush(heap, (len(row), i))
        units += 1
    return units, list(live.values())


def smith_normal_form(rows):
    """Invariant factors of an integer matrix of sparse rows, in divisibility order.

    Two phases.  The sparse phase (:func:`_eliminate_units`) eliminates unit
    pivots, each an invariant factor 1.  The dense phase densifies the rest
    over the columns it uses (zero rows and columns carry no invariant
    factors) and eliminates by smallest pivots.  ``rows`` is left unchanged.
    """
    units, rest = _eliminate_units([dict(r) for r in rows if r])
    rest = _dense_snf(rest)
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
    """Rank over Q; consumes ``rows``.

    rank_Q = (unit pivots) + rank_Q(residual): the unit phase of
    :func:`_eliminate_units` goes first, and the residual is eliminated
    fraction-free.  Its rows are {column: value} dicts with their content
    divided out; the row update (pv/g)*row - (rv/g)*pivot is an invertible
    operation over Q, so the rank is exact.
    """
    rank, rows = _eliminate_units(rows)
    rows = [_strip_content(r) for r in rows]
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
