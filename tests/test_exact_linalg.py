import time
from itertools import combinations
from math import comb, gcd, isqrt

import pytest

from conftest import random_form, seeded

from cuphom.cup_complex import boundary_rows
from cuphom.exact_linalg import (BOUND_PRIME, PRIME_LIMIT, _dense, _dense_snf, _divisibility_chain,
                                 _eliminate, _pfaffian_rank, _rank_mod_p, _round_div,
                                 is_prime, q_rank_bound, rank_over_field, skew_q_rank,
                                 smith_normal_form, sparse_product)
from cuphom.exterior import blade_basis
from cuphom.forms import FormError, ThreeForm, surface_circle, torus3
from cuphom.homology import h_mod_p
from cuphom.oracles import _dense_rank_char0, _dense_rank_modp


def _reduced(rows, p):
    """Fresh copies of sparse rows, reduced mod p when p > 0 (ranks consume rows)."""
    return [{j: v % p if p else v for j, v in row.items() if (v % p if p else v)}
            for row in rows]


def M(dense, p=0):
    """Sparse rows of a dense matrix, reduced mod p when p > 0."""
    return _reduced([dict(enumerate(row)) for row in dense], p)


def _last_bound(bound, more):
    """The last value of a q_rank_bound result, the rank; no earlier bound exceeds it."""
    values = [bound, *(more or ())]
    assert max(values) == values[-1], values
    return values[-1]


def q_rank(rows):
    """Rank over Q: the bounds of q_rank_bound, run to the last when left open."""
    return _last_bound(*q_rank_bound(rows))


def test_snf_basic():
    assert smith_normal_form(M([[2, 4], [6, 8]])) == (2, 4)
    r = smith_normal_form(M([[0] * 5] * 3))
    assert len(r) == 0 and r == ()
    assert smith_normal_form(M([[7]])) == (7,)
    assert smith_normal_form(M([[-7]])) == (7,)
    # Empty rows and unused columns carry no invariant factors.
    assert smith_normal_form([{}, {5: 2, 9: 4}, {}, {5: 6, 9: 8}]) == (2, 4)
    assert smith_normal_form([{3: 4}, {}, {8: 6}]) == (2, 12)
    rows = [{}, {9: -7}]
    assert smith_normal_form(rows) == (7,)
    assert rows == [{}, {9: -7}]


def test_snf_divisibility_normalization():
    # diag(2, 3) is not in normal form; the group is Z/6.
    assert smith_normal_form(M([[2, 0], [0, 3]])) == (1, 6)
    assert smith_normal_form(M([[4, 0], [0, 6]])) == (2, 12)


def test_snf_empty_shapes():
    assert len(smith_normal_form([])) == 0
    assert len(smith_normal_form([{}, {}, {}, {}])) == 0
    assert smith_normal_form([{}, {7: 3}, {}]) == smith_normal_form([{0: 3}])


def test_rank_over_field_basic():
    assert rank_over_field(M([[2]], 2), 2) == 0
    assert q_rank(M([[2]])) == 1
    assert q_rank(M([[1, 1], [1, 1]])) == 1
    assert rank_over_field(M([[1, 1], [1, 1]], 5), 5) == 1
    assert rank_over_field(boundary_rows(torus3(6), 3, 3), 3) == 0
    assert rank_over_field(boundary_rows(torus3(6), 3, 5), 5) == 1
    # Sparse {column: value} rows, as the compiled boundary maps give them.
    assert q_rank([{0: 1, 1: 1}, {}, {0: 1, 1: 1}]) == 1
    assert q_rank([{0: 2, 1: 4}, {1: 3}]) == 2
    assert rank_over_field([{0: 1, 1: 2}, {0: 2, 1: 1}], 3) == 1


def test_rank_rejects_composite_characteristic():
    # Over Q the rank goes through q_rank_bound; characteristic 0 is refused.
    for characteristic in (0, 1, 4):
        with pytest.raises(ValueError):
            rank_over_field(M([[1]]), characteristic)


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 97, 101]
    composites = [-3, 0, 1, 4, 6, 9, 91, 100]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_is_prime_matches_trial_division_up_to_10_to_the_5():
    for n in range(-2, 10 ** 5 + 1):
        assert is_prime(n) == (n > 1 and all(n % d for d in range(2, isqrt(n) + 1))), n


def test_is_prime_on_strong_pseudoprimes_and_beyond_its_range():
    # The least strong pseudoprimes to the prime bases up to 7, to 31 and to
    # 37: each is caught only by a later base.  PRIME_LIMIT itself fools all
    # 13 bases.  10^15 + 37 took a second by trial division.
    def strong_liar(a, n):  # a^d = 1 or a^(d·2^i) = -1 mod n, n - 1 = d·2^s, i < s
        s = ((n - 1) & (1 - n)).bit_length() - 1
        d = (n - 1) >> s
        return pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))

    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for n, fooled in ((3215031751, 4), (3825123056546413051, 11),
                      (318665857834031151167461, 12), (PRIME_LIMIT, 13)):
        assert all(strong_liar(a, n) for a in bases[:fooled]), n
        assert n == PRIME_LIMIT or not is_prime(n), n
    assert is_prime(10 ** 15 + 37) and is_prime(2 ** 61 - 1)
    m89 = 2 ** 89 - 1  # a Mersenne prime above the decided range
    start = time.perf_counter()
    for n in (PRIME_LIMIT, m89):
        with pytest.raises(ValueError, match="too large"):
            is_prime(n)
        with pytest.raises(ValueError, match="too large"):
            rank_over_field(M([[1]]), n)
        with pytest.raises(FormError, match="too large"):
            h_mod_p(torus3(1), n)
    assert time.perf_counter() - start < 1


def _random_dense(rng, rows, cols, bound=50):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_field_rank_consistent_with_snf():
    # rank over Q equals the SNF rank; rank over F_p counts the invariant
    # factors that p does not divide.
    rng = seeded(101)
    sizes = [(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(18)]
    sizes.append((40, 40))
    for rows, cols in sizes:
        # Mix dense matrices with low-rank products that force torsion.
        if rng.random() < 0.5:
            m = M(_random_dense(rng, rows, cols))
        else:
            inner = rng.randint(1, min(rows, cols))
            a = M(_random_dense(rng, rows, inner, 6))
            b = M(_random_dense(rng, inner, cols, 6))
            m = sparse_product(a, b)
        snf = smith_normal_form(m)
        assert q_rank(_reduced(m, 0)) == len(snf)
        for p in (2, 3, 5, 7, 97):
            expected = sum(1 for d in snf if d % p)
            assert rank_over_field(_reduced(m, p), p) == expected


def test_snf_invariant_under_unimodular_ops():
    rng = seeded(202)
    for _ in range(25):
        rows, cols = rng.randint(2, 8), rng.randint(2, 8)
        m = _random_dense(rng, rows, cols, 9)
        data = [row[:] for row in m]
        for _ in range(30):
            op = rng.randrange(4)
            if op == 0:
                i, j = rng.sample(range(rows), 2)
                q = rng.randint(-3, 3)
                data[i] = [a + q * b for a, b in zip(data[i], data[j])]
            elif op == 1:
                i, j = rng.sample(range(cols), 2)
                q = rng.randint(-3, 3)
                for row in data:
                    row[i] += q * row[j]
            elif op == 2:
                i, j = rng.sample(range(rows), 2)
                data[i], data[j] = data[j], data[i]
            else:
                i = rng.randrange(rows)
                data[i] = [-a for a in data[i]]
        assert smith_normal_form(M(data)) == smith_normal_form(M(m))


def _det(square):
    """Determinant by fraction-free (Bareiss) elimination with row swaps."""
    a = [row[:] for row in square]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _determinantal_factors(dense):
    """Invariant factors d_k = D_k / D_(k-1), where D_k is the gcd of all k x k minors."""
    m, n = len(dense), len(dense[0]) if dense else 0
    factors, prev = [], 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                g = gcd(g, _det([[dense[r][c] for c in cs] for r in rs]))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def test_snf_matches_determinantal_divisors(monkeypatch):
    # An oracle that shares nothing with exact_linalg, on three kinds of
    # small matrices: rich in units (the sparse phase mostly leaves nothing),
    # free of units (only the dense phase runs) and with planted torsion.
    import cuphom.exact_linalg as el

    residual_rows = []
    real_dense = el._dense_snf

    def seen_dense(rows):
        residual_rows.append(len(rows))
        return real_dense(rows)

    monkeypatch.setattr(el, "_dense_snf", seen_dense)
    rng = seeded(4242)

    def shape():
        return rng.randint(1, 7), rng.randint(1, 7)

    def unit_rich():
        m, n = shape()
        return [[rng.choice((-1, 1, -1, 1, 0, 0, 0, 3)) for _ in range(n)] for _ in range(m)]

    def unit_free():
        m, n = shape()
        return [[rng.choice((0, 0, 2, -2, 3, -4, 6, 9)) for _ in range(n)] for _ in range(m)]

    def planted():
        (m, n), r = shape(), rng.randint(1, 4)
        a = M(_random_dense(rng, m, r, 2))
        d = [{i: rng.choice((1, 2, 3, 4, 6, 12))} for i in range(r)]
        b = M(_random_dense(rng, r, n, 2))
        product = sparse_product(sparse_product(a, d), b)
        return [[row.get(j, 0) for j in range(n)] for row in product]

    for kind in (unit_rich, unit_free, planted):
        residual_rows.clear()
        nonempty, torsion = [], 0
        for _ in range(40):
            dense = kind()
            rows = M(dense)
            before = [dict(r) for r in rows]
            snf = smith_normal_form(rows)
            assert rows == before
            assert type(snf) is tuple
            assert snf == _determinantal_factors(dense), dense
            nonempty.append(sum(1 for r in rows if r))
            torsion += any(d > 1 for d in snf)
        if kind is unit_free:
            assert residual_rows == nonempty
        elif kind is unit_rich:
            assert residual_rows.count(0) > 20, residual_rows
        else:
            assert torsion > 20


def _pairwise_divisibility_chain(values):
    """Reference chain: replace a non-dividing pair (a, b) by (gcd, lcm) until
    none is left, visiting every pair on each pass, then sort."""
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


def _chain_matches_pairwise_reference(values):
    chain = _divisibility_chain(values)
    assert chain == tuple(_pairwise_divisibility_chain(values)), values
    return chain


def test_divisibility_chain_matches_pairwise_reference_on_random_multisets():
    rng = seeded(1212)
    shared = [rng.randrange(10 ** 29, 10 ** 30) for _ in range(3)]
    pools = {"small": range(1, 40), "smooth": (1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72),
             "30-digit": [c * s for c in shared for s in (1, 2, 3, 6, 35)]
             + [rng.randrange(10 ** 29, 10 ** 30) for _ in range(5)]}
    for name, pool in pools.items():
        merged = 0
        for _ in range(300):
            values = [rng.choice(pool) * rng.choice((1, -1)) for _ in range(rng.randint(0, 12))]
            values += values[:rng.randint(0, len(values))]  # repeated values
            chain = _chain_matches_pairwise_reference(values)
            merged += chain != tuple(sorted(map(abs, values)))
        assert merged > 150, (name, merged)  # most multisets are not chains as drawn
    assert _divisibility_chain([]) == ()
    assert _chain_matches_pairwise_reference([-4, 6, 1, 1, 10]) == (1, 1, 2, 2, 60)


def test_divisibility_chain_matches_pairwise_reference_on_cup_homology(monkeypatch):
    # Every chain that cup_homology normalizes: the pivots of each dense block
    # and the torsion merged into the even and odd parts.
    import cuphom.exact_linalg as el
    import cuphom.homology as hom

    seen = []

    def capture(values):
        seen.append(list(values))
        return _divisibility_chain(seen[-1])

    monkeypatch.setattr(el, "_divisibility_chain", capture)
    monkeypatch.setattr(hom, "_divisibility_chain", capture)
    hom.cup_homology(surface_circle(6))
    hom.cup_homology(surface_circle(5))  # only half the maps reach Smith normal form
    monkeypatch.undo()
    torsion = 0
    for values in seen:
        torsion += any(d > 1 for d in _chain_matches_pairwise_reference(values))
    assert len(seen) > 10 and torsion > 5 and max(map(len, seen)) > 100, \
        (len(seen), torsion, max(map(len, seen)))


def _whole_block_dense_snf(rows):
    """Reference dense phase: before every Euclid round, rescan the whole
    block for the smallest entry and swap it to (k, k); clear its row and
    column with row and column operations that sweep every row."""
    used = sorted({j for r in rows for j in r})
    D = [[r.get(j, 0) for j in used] for r in rows]
    m, n = len(D), len(used)
    for k in range(min(m, n)):
        while True:
            best = None
            for i in range(k, m):
                for j in range(k, n):
                    v = D[i][j]
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
    return tuple(_pairwise_divisibility_chain([D[i][i] for i in range(min(m, n)) if D[i][i]]))


def _transpose(rows):
    cols = {}
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols.setdefault(j, {})[i] = v
    return [cols[j] for j in sorted(cols)]


def _dense_phase_matches_reference(rows):
    snf = _dense_snf([dict(r) for r in rows])
    assert snf == _whole_block_dense_snf(rows), rows
    return snf


def test_dense_phase_matches_whole_block_reference_on_random_matrices():
    rng = seeded(909)
    unit_free = (0, 0, 0, 2, -2, 3, -4, 6, 9, -10, 15)

    def block(m, n):
        return [{j: v for j in range(n) if (v := rng.choice(unit_free))} for _ in range(m)]

    def planted(m, n):
        r = rng.randint(1, min(m, n))
        a = M(_random_dense(rng, m, r, 3))
        d = [{i: rng.choice((2, 3, 4, 6, 12, 35))} for i in range(r)]
        b = M(_random_dense(rng, r, n, 3))
        return sparse_product(sparse_product(a, d), b)

    shapes = {"tall": lambda: (rng.randint(9, 24), rng.randint(1, 8)),
              "wide": lambda: (rng.randint(1, 8), rng.randint(9, 24)),
              "square": lambda: (rng.randint(1, 12),) * 2}
    cases = [[{0: 2, 1: 3}], [{0: 6}, {1: 4}, {0: 4, 1: 6}], [{5: 10, 7: 4}, {5: 15, 7: 6}]]
    for shape in shapes.values():
        cases += [block(*shape()) for _ in range(25)]
        cases += [planted(*shape()) for _ in range(25)]
    deficient = torsion = 0
    for rows in cases:
        rows = [r for r in rows if r]
        snf = _dense_phase_matches_reference(rows)
        n = len({j for r in rows for j in r})
        deficient += len(snf) < min(len(rows), n)
        torsion += any(d > 1 for d in snf)
    assert smith_normal_form([{0: 2, 1: 3}]) == (1,)
    assert deficient > 30 and torsion > 100, (deficient, torsion)


def _snf_residuals(forms, monkeypatch):
    """The rows that smith_normal_form hands to the dense phase on every map of ``forms``."""
    import cuphom.exact_linalg as el

    seen = []

    def capture(rows):
        seen.append([dict(r) for r in rows])
        return _dense_snf(rows)

    monkeypatch.setattr(el, "_dense_snf", capture)
    for f in forms:
        for k in range(3, f.rank + 1):
            smith_normal_form(boundary_rows(f, k))
    monkeypatch.undo()
    return [rows for rows in seen if rows]


def test_dense_phase_matches_whole_block_reference_on_boundary_residuals(monkeypatch):
    rng = seeded(1010)

    def dense_form(b):
        return ThreeForm.from_coeffs(b, {t: rng.choice((-1, 0, 1)) for t in blade_basis(b, 3)})

    forms = [surface_circle(4), surface_circle(5)]
    forms += [dense_form(b) for b in (8, 9) for _ in range(4)]
    residuals = _snf_residuals(forms, monkeypatch)
    big = torsion = 0
    for rows in residuals:
        snf = _dense_phase_matches_reference(rows)
        big += sum(map(len, rows)) > 400
        torsion += any(d > 1 for d in snf)
    assert len(residuals) > 20 and big >= 4 and torsion > 5, (len(residuals), big, torsion)


def test_snf_invariant_under_transposition():
    rng = seeded(1111)
    cases = [_random_sparse(rng, (1, -1, 2, -2, 3, 5, -7)) for _ in range(40)]
    cases += [_random_sparse(rng, (2, -2, 3, -4, 6, 9)) for _ in range(40)]
    cases += [boundary_rows(f, k) for f in (surface_circle(3), random_form(rng, 7))
              for k in range(3, f.rank + 1)]
    for rows in cases:
        assert smith_normal_form(rows) == smith_normal_form(_transpose(rows)), rows


def _min_scan_unit_phase(rows, stop=False):
    """Reference unit phase that picks each pivot row by a ``min`` over every
    remaining row: the shortest row holding a ±1 (the first on ties), then its
    ±1 column with the fewest rows.  With ``stop`` it ends before a pivot row
    of at least 16 entries and an eighth of the columns not yet pivoted,
    unless no other row is left.  Returns (units, residual rows)."""
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
        n = len(rows[pi])
        if stop and n >= 16 and 8 * n >= len(col_rows) and len(rows) > 1:
            break
        prow = rows.pop(pi)
        pc = min((j for j, v in prow.items() if v in (1, -1)), key=lambda j: len(col_rows[j]))
        pv = prow[pc]
        for j in prow:
            col_rows[j].discard(pi)
        for i in col_rows.pop(pc):
            row = rows[i]
            c = row.pop(pc) * pv
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
    return units, list(rows.values())


def _random_sparse(rng, values):
    m, n = rng.randint(1, 30), rng.randint(1, 30)
    density = rng.choice((0.1, 0.25, 0.5))
    return [{j: rng.choice(values) for j in range(n) if rng.random() < density}
            for _ in range(m)]


def _kernel_matches_min_scan(rows):
    units, residual = _eliminate([dict(r) for r in rows])
    ref_units, ref_residual = _min_scan_unit_phase(rows)
    assert units == ref_units
    assert [list(r.items()) for r in residual] == [list(r.items()) for r in ref_residual]
    return units, residual


def test_unit_kernel_matches_min_scan_on_random_matrices():
    rng = seeded(606)
    kinds = {"unit-rich": (1, -1, 1, -1, 2, -3), "unit-free": (2, -2, 3, -4, 6, 9),
             "mixed": (1, -1, 2, -2, 3, 5, -7)}
    for name, values in kinds.items():
        seen_units = seen_residual = 0
        for _ in range(60):
            units, residual = _kernel_matches_min_scan(_random_sparse(rng, values))
            seen_units += units > 0
            seen_residual += bool(residual)
        if name == "unit-free":
            assert seen_units == 0
        else:
            assert seen_units > 40, name
        if name != "unit-rich":
            assert seen_residual > 20, name


def test_unit_kernel_matches_min_scan_on_boundary_maps():
    rng = seeded(707)
    forms = [surface_circle(4)] + [random_form(rng, 8) for _ in range(4)]
    for f in forms:
        for k in range(3, f.rank + 1):
            _kernel_matches_min_scan(boundary_rows(f, k))


def test_unit_kernel_consumes_rows_and_keeps_row_order():
    rows = [{0: 2, 1: 4}, {}, {0: 1, 2: 1}, {1: 6, 2: 3}, {0: 3}]
    units, residual = _eliminate(rows)
    # Row 2 is the only one with a unit; of its ±1 columns, column 2 has the
    # fewer rows (2 against 3), so it is cleared, from row 3 only.
    assert units == 1
    assert residual == [{0: 2, 1: 4}, {1: 6, 0: -3}, {0: 3}]
    assert [r is rows[i] for r, i in zip(residual, (0, 3, 4))] == [True] * 3
    assert _eliminate([{}, {3: 5}]) == (0, [{3: 5}])
    assert _eliminate([{}, {3: -1, 4: 7}, {}]) == (1, [])
    assert _eliminate([]) == (0, [])


def _has_unit_row(rows):
    return any(1 in r.values() or -1 in r.values() for r in rows)


def _stop_then_resume(rows):
    """The unit phase stopped, against the reference, then resumed on its
    residual, against the whole phase; returns whether it stopped after a
    pivot."""
    whole = _eliminate([dict(r) for r in rows])
    units, at_stop = _eliminate([dict(r) for r in rows], stop=True)
    assert (units, at_stop) == _min_scan_unit_phase(rows, stop=True)
    stopped = _has_unit_row(at_stop)
    more, residual = _eliminate(at_stop)
    assert (units + more, residual) == whole
    return stopped and units > 0


def test_stopped_unit_phase_resumes_to_the_whole_phase():
    # A stop before a dense block, then a second call on the residual, gives
    # the units and residual of one whole unit phase.  Sparse matrices fill
    # in under unit pivots until the stop fires, some 20 to 30 pivots in.
    rng = seeded(2323)
    stops = 0
    for _ in range(40):
        m, n = rng.randint(40, 80), rng.randint(40, 80)
        rows = [{j: rng.choice((1, -1, 1, 2, -3, 5)) for j in range(n) if rng.random() < 0.15}
                for _ in range(m)]
        stops += _stop_then_resume(rows)
    for f in (random_form(rng, 9), surface_circle(4)):
        for k in range(3, f.rank + 1):
            stops += _stop_then_resume(boundary_rows(f, k))
    assert stops > 20, stops


def test_dense_switch_is_an_eighth_of_the_free_columns_from_16_entries():
    # The one switch of both sparse kernels.  Eight disjoint rows of 16
    # units on 128 columns are dense at once, so the stopping unit phase
    # takes no pivot; one more column makes them sparse, so it pivots.
    assert _dense(16, 128) and not _dense(16, 129) and not _dense(15, 120)
    rows = [{j: 1 for j in range(16 * i, 16 * i + 16)} for i in range(8)]
    assert _eliminate([dict(r) for r in rows], stop=True) == (0, rows)
    wider = rows + [{j: 1 for j in range(112, 129)}]
    assert _eliminate(wider, stop=True)[0] > 0


def test_q_rank_matches_bareiss_when_a_residual_is_left():
    rng = seeded(808)
    checked = 0
    while checked < 40:
        rows = _random_sparse(rng, (1, -1, 2, -2, 3, 4, -6))
        if not _eliminate([dict(r) for r in rows])[1]:
            continue
        n = 1 + max((j for r in rows for j in r), default=0)
        dense = [[r.get(j, 0) for j in range(n)] for r in rows]
        assert q_rank([dict(r) for r in rows]) == _dense_rank_char0(dense)
        checked += 1


# Reference Q-rank for the any-pivot mode of _eliminate: a fraction-free
# loop that shares none of its code (no heap, no column index).
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


def _fraction_free_rank(rows):
    """Rank over Q of nonempty sparse rows, eliminated fraction-free; consumes ``rows``.

    The rows are {column: value} dicts with their content divided out; the
    row update (pv/g)*row - (rv/g)*pivot is an invertible operation over Q,
    so the rank is exact.
    """
    rows = [_strip_content(r) for r in rows]
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


def _any_pivot_rank(rows):
    rank, rest = _eliminate([dict(r) for r in rows], any_pivot=True)
    assert rest == []  # every nonempty row is a candidate
    return rank


def test_any_pivot_rank_matches_the_fraction_free_reference():
    rng = seeded(2020)
    kinds = {"unit-rich": (1, -1, 1, -1, 2, -3), "unit-free": (2, -2, 3, -4, 6, 9),
             "large": (1, -1, 2 ** 40 + 1, -3 ** 25, 6 ** 17, 2 ** 61 - 1),
             "large unit-free": (2 ** 40, -3 ** 25, 6 ** 17, 10 ** 15 + 5)}
    deficient = 0
    for name, values in kinds.items():
        for _ in range(60):
            rows = _random_sparse(rng, values)
            rank = _fraction_free_rank([dict(r) for r in rows if r])
            assert _any_pivot_rank(rows) == rank, (name, rows)
            deficient += rank < min(len(rows), len({j for r in rows for j in r}))
    assert deficient > 20, deficient
    # Rank-deficient by construction: products of a thin pair, entries that
    # have no unit, nor a common factor with the bound prime's multiples.
    for _ in range(30):
        m, n, r = rng.randint(2, 25), rng.randint(2, 25), rng.randint(1, 6)
        A = [[rng.choice((0, 0, 2, -3, 5, 7)) for _ in range(r)] for _ in range(m)]
        B = [[rng.choice((0, 0, 0, 4, -6, 9)) for _ in range(n)] for _ in range(r)]
        dense = [[sum(x * y for x, y in zip(row, col)) for col in zip(*B)] for row in A]
        rows = [{j: v for j, v in enumerate(row) if v} for row in dense]
        assert _any_pivot_rank(rows) == _fraction_free_rank([r for r in rows if r]) \
            == _dense_rank_char0(dense)


def _random_skew(rng, n, r, values):
    """Dense n x n skew matrix B C B^T: B is n x r and C skew r x r, both drawn
    from ``values``, so the rank is at most r."""
    B = [[rng.choice(values) for _ in range(r)] for _ in range(n)]
    C = [[0] * r for _ in range(r)]
    for i, j in combinations(range(r), 2):
        C[i][j] = rng.choice(values)
        C[j][i] = -C[i][j]
    BC = [[sum(x * y for x, y in zip(row, col)) for col in zip(*C)] for row in B]
    return [[sum(x * y for x, y in zip(u, v)) for v in B] for u in BC]


def _skew_rows(dense):
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


def test_pfaffian_finish_matches_bareiss_on_skew_matrices():
    # The Pfaffian finish takes the nonempty rows of a skew matrix, labelled
    # by the sorted columns they use; the dense Bareiss oracle shares no code
    # with it.
    assert _pfaffian_rank([]) == 0  # the zero matrix has no nonempty row
    assert _pfaffian_rank([{1: 3}, {0: -3}]) == 2 == _dense_rank_char0([[0, 3], [-3, 0]])
    assert _pfaffian_rank([{5: -2 ** 40}, {2: 2 ** 40}]) == 2
    rng = seeded(1818)
    small, large = (-3, -2, -1, 0, 1, 2, 3), (-2 ** 20, -1, 0, 1, 2 ** 20 - 1)
    deficient = 0
    for _ in range(60):
        n = rng.randint(3, 40)
        r = rng.choice((n, rng.randint(1, n)))  # planted rank deficiency when r < n - 1
        dense = _random_skew(rng, n, r, rng.choice((small, large)))
        rows = [row for row in _skew_rows(dense) if row]
        rank = _dense_rank_char0(dense)
        assert _pfaffian_rank([dict(row) for row in rows]) == rank, (n, r)
        deficient += rank < n - 1
    big = [[0] * 30 for _ in range(30)]  # full-size entries up to 2^40
    for i, j in combinations(range(30), 2):
        big[i][j] = rng.randint(-2 ** 40, 2 ** 40)
        big[j][i] = -big[i][j]
    assert _pfaffian_rank(_skew_rows(big)) == _dense_rank_char0(big) == 30
    assert max(abs(v) for row in big for v in row) > 2 ** 39
    assert deficient > 20


def test_skew_q_rank_pairs_units_and_matches_bareiss(finishes):
    # Paired unit pivots keep the residual skew, with its rows labelled by
    # the sorted columns they use; the rank agrees with the oracle.
    # Products B C B^T leave dense residuals, for the Pfaffian finish;
    # random skew matrices with few entries leave sparse ones, for the
    # any-pivot mode of the sparse kernel.
    rng = seeded(1919)
    for trial in range(80):
        n = rng.randint(2, 40)
        if trial % 2:
            dense = _random_skew(rng, n, rng.randint(1, n), (-2, -1, 0, 0, 1, 2))
        else:
            dense = [[0] * n for _ in range(n)]
            for i, j in combinations(range(n), 2):
                if rng.random() < 0.06:
                    dense[i][j] = rng.choice((-3, -2, -1, 2, 3, 4))
                    dense[j][i] = -dense[i][j]
        units, rest = _eliminate(_skew_rows(dense), paired=True)
        assert units % 2 == 0
        labels = sorted({j for row in rest for j in row})
        assert len(labels) == len(rest)
        for i, row in zip(labels, rest):
            assert all(rest[labels.index(j)].get(i) == -v for j, v in row.items())
        assert skew_q_rank(_skew_rows(dense)) == _dense_rank_char0(dense)
    assert finishes["_pfaffian_rank"] > 5 and finishes["any_pivot"] > 5, finishes


def _count_packed(monkeypatch):
    """A list of the typecodes of every ``array`` that _rank_mod_p builds: it
    packs rows and pivot rows with ``array`` when a slot is at most 8 bytes."""
    import cuphom.exact_linalg as el

    packed = []
    real = el.array

    def counted(code, slots):
        packed.append(code)
        return real(code, slots)

    monkeypatch.setattr(el, "array", counted)
    return packed


def _field_ranks_match_dense_oracle(f, primes, packed):
    """Compare every map of ``f`` with the oracle; returns how many maps were packed."""
    blocks = 0
    for k in range(3, f.rank + 1):
        rows = boundary_rows(f, k)
        dense = [[r.get(j, 0) for j in range(comb(f.rank, k))] for r in rows]
        for p in primes:
            before = len(packed)
            assert _rank_mod_p(_reduced(rows, p), p) == _dense_rank_modp(dense, p), (f, k, p)
            blocks += len(packed) > before
    return blocks


def test_field_rank_matches_dense_oracle_on_acceptance_forms(monkeypatch):
    # The forms of acceptance suites 2a, 2b, 2c and 2e, every map, over F_2,
    # F_3, F_5 and modulo BOUND_PRIME: mostly sparse blocks, and a few
    # hundred dense ones that the odd-p kernel packs.
    packed = _count_packed(monkeypatch)
    blocks = 0
    for seed in (1001, 1002, 1003, 1005):
        rng = seeded(seed)
        for _ in range(500):
            blocks += _field_ranks_match_dense_oracle(random_form(rng, rng.randint(1, 7)),
                                                      (2, 3, 5, BOUND_PRIME), packed)
    assert blocks > 300, blocks


def test_field_rank_matches_dense_oracle_on_surface_circle_maps(monkeypatch):
    # Sparse maps with torsion of orders 2 to 6: the sparse phase takes them whole.
    packed = _count_packed(monkeypatch)
    for g in range(1, 7):
        assert _field_ranks_match_dense_oracle(surface_circle(g), (2, 3, 5, BOUND_PRIME),
                                               packed) == 0


def _slot_stress_rows(rng, n, p=3):
    """Dense rows mod p, of rank n, on which the packed phase drives one slot
    from p - 1 through n - 1 updates of (p-1)^2: the most a slot can take in
    a block of cap = n pivots, as each pivot but one is on another column.

    The kernel takes the packed rows in order and pivots each on its lowest
    nonzero slot.  Row i < t = n - 1 reduces to r_i = e_i + (p-1) e_t plus
    entries between, and is built as a multiple of r_i plus earlier r_j, so
    every row is dense.  Row y = (sum of those r_i) + g e_t holds 1 in each
    pivot column when its turn comes, so each of the t pivots adds
    (p - 1)·r_i to it, which is (p-1)^2 in slot t.  The last row, built the
    same way from e_t, closes the rank at n.
    """
    t = n - 1
    r = [[0] * i + [1] + [rng.randrange(p) for _ in range(i + 1, t)] + [p - 1] for i in range(t)]
    r.append([0] * t + [1])

    def disguised(i):
        scale = rng.randrange(1, p)
        out = [scale * v for v in r[i]]
        for prev in r[:i]:
            c = rng.randrange(1, p)
            out = [a + c * b for a, b in zip(out, prev)]
        return out

    y = [sum(col) for col in zip(*r[:t])]
    y[t] = p - 1
    rows = [disguised(i) for i in range(t)] + [y, disguised(t)]
    return [{j: v % p for j, v in enumerate(row) if v % p} for row in rows]


@pytest.mark.parametrize("n", [63, 65])
def test_packed_slot_at_its_most_updates(monkeypatch, n):
    # At p = 3 a block of cap pivots gets one-byte slots while
    # 4·cap + 2 < 2^8, so up to cap = 63, where the driven slot ends at
    # 2 + 4·62 = 250.  At cap = 65 it ends at 258 > 255, which only two-byte
    # slots hold.
    packed = _count_packed(monkeypatch)
    rows = _slot_stress_rows(seeded(n), n)
    assert min(map(len, rows)) >= max(16, n / 8)  # the packed phase takes the whole block
    dense = [[r.get(j, 0) for j in range(n)] for r in rows]
    assert _dense_rank_modp(dense, 3) == n
    assert _rank_mod_p(rows, 3) == n
    assert set(packed) == {"B" if n == 63 else "H"}


def test_field_rank_with_slots_wider_than_64_bits():
    # (p - 1)^2 > 2^64 at p = 4294967311, so every packed slot spans more
    # than one machine word.
    p = 4294967311
    rng = seeded(4294)
    deficient = 0
    for _ in range(30):
        m, n, inner = rng.randint(17, 40), rng.randint(17, 40), rng.randint(1, 40)
        a = [[rng.randrange(p) for _ in range(inner)] for _ in range(m)]
        b = [[rng.randrange(p) for _ in range(n)] for _ in range(inner)]
        dense = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
        rank = _dense_rank_modp(dense, p)
        assert rank_over_field(M(dense, p), p) == rank
        deficient += rank < min(m, n)
    f = ThreeForm(8, tuple((i, j, k, i * j + k) for i, j, k in combinations(range(1, 9), 3)))
    assert h_mod_p(f, p) == 54 and h_mod_p(f, 3) == 56
    assert deficient > 5, deficient
