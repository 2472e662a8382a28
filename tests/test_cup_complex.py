from array import array
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

from conftest import random_form, seeded

from cuphom.cup_complex import (_check_duality, _entry_table, boundary_rows, checked_maps,
                                dual_degree, dump_boundary_matrices, render_matrix_grid,
                                skew_rows, verify_d_squared)
from cuphom.exterior import blade_basis
from cuphom.forms import ThreeForm, surface_circle, torus3, trivial
from cuphom.oracles import contraction_matrix


def test_boundary_matrix_torus():
    assert boundary_rows(torus3(5), 3) == [{0: 5}]


def test_boundary_matrix_trivial_is_zero():
    for k in range(7):
        rows = boundary_rows(trivial(6), k)
        assert len(rows) == (comb(6, k - 3) if k >= 3 else 0)
        assert not any(rows)


def test_boundary_matrix_surface_circle():
    assert boundary_rows(surface_circle(1), 3) == [{0: 1}]


def test_boundary_matrix_shapes():
    f = surface_circle(2)
    for k in range(f.rank + 1):
        rows = boundary_rows(f, k)
        assert len(rows) == (comb(5, k - 3) if k >= 3 else 0)
        assert all(0 <= c < comb(5, k) for row in rows for c in row)
    with pytest.raises(ValueError):
        boundary_rows(f, 6)
    with pytest.raises(ValueError):
        boundary_rows(f, -1)


def test_boundary_matrix_known_entries():
    # mu = s ^ (e2 e3 + e4 e5): degree-4 blades contract to single basis vectors.
    rows = boundary_rows(surface_circle(2), 4)
    cols = {c: tuple(row.get(c, 0) for row in rows) for c in range(comb(5, 4))}
    # blade order: (1,2,3,4), (1,2,3,5), (1,2,4,5), (1,3,4,5), (2,3,4,5)
    assert cols[0] == (0, 0, 0, 1, 0)
    assert cols[1] == (0, 0, 0, 0, 1)
    assert cols[2] == (0, 1, 0, 0, 0)
    assert cols[3] == (0, 0, 1, 0, 0)
    assert cols[4] == (0, 0, 0, 0, 0)


def test_boundary_matrix_additive_in_form():
    rng = seeded(77)
    for _ in range(20):
        b = rng.randint(3, 6)
        f1 = random_form(rng, b)
        f2 = random_form(rng, b)
        merged = dict(f1.coeffs)
        for t, a in f2.coeffs.items():
            merged[t] = merged.get(t, 0) + a
        fsum = ThreeForm.from_coeffs(b, merged)
        for k in range(3, b + 1):
            r1, r2 = boundary_rows(f1, k), boundary_rows(f2, k)
            added = [{c: row1.get(c, 0) + row2.get(c, 0) for c in row1.keys() | row2.keys()}
                     for row1, row2 in zip(r1, r2)]
            assert boundary_rows(fsum, k) == [{c: v for c, v in row.items() if v}
                                              for row in added]


def test_boundary_entries_bounded():
    # Each entry accumulates at most C(k, 3) coefficients of the form.
    rng = seeded(78)
    for _ in range(10):
        b = rng.randint(3, 7)
        f = random_form(rng, b)
        peak = max((abs(a) for _, _, _, a in f.terms), default=0)
        for k in range(3, b + 1):
            bound = comb(k, 3) * peak
            assert all(abs(v) <= bound for row in boundary_rows(f, k) for v in row.values())


def test_compiled_maps_match_contraction():
    # The compiled entry tables give, entry by entry, the matrices that
    # exterior.contract builds blade by blade, over Z and mod p, in every degree.
    rng = seeded(2026)
    forms = [trivial(b) for b in (0, 3, 8)]
    forms += [random_form(rng, rng.randint(1, 8)) for _ in range(60)]
    for f in forms:
        for k in range(f.rank + 1):
            dense = contraction_matrix(f, k)
            for p in (0, 2, 3, 5):
                reduced = [[v % p if p else v for v in row] for row in dense]
                want = [{c: v for c, v in enumerate(row) if v} for row in reduced]
                assert boundary_rows(f, k, p) == want


def _shuffle_sign(b, blade):
    """Sign of the permutation (blade, complement) of 1..b."""
    return (-1) ** sum(x - i for i, x in enumerate(blade, 1))


def test_dual_map_is_signed_transpose_of_contraction():
    # The fact behind the certificate, entry by entry on the oracle's matrices:
    # d_{b+3-k}[col^c, row^c] = (-1)^(k+1) sigma(row) sigma(col) d_k[row, col].
    rng = seeded(2027)
    for _ in range(12):
        f = random_form(rng, rng.randint(3, 8), coeff_max=4)
        b = f.rank
        for k in range(3, b + 1):
            dense, dual = contraction_matrix(f, k), contraction_matrix(f, b + 3 - k)
            rows, cols = blade_basis(b, k - 3), blade_basis(b, k)
            dual_rows = {blade: i for i, blade in enumerate(blade_basis(b, b - k))}
            dual_cols = {blade: i for i, blade in enumerate(blade_basis(b, b + 3 - k))}
            for r, row in enumerate(rows):
                row_c = tuple(x for x in range(1, b + 1) if x not in row)
                for c, col in enumerate(cols):
                    col_c = tuple(x for x in range(1, b + 1) if x not in col)
                    sign = (-1) ** (k + 1) * _shuffle_sign(b, row) * _shuffle_sign(b, col)
                    assert dual[dual_rows[col_c]][dual_cols[row_c]] == sign * dense[r][c]


def _moved(table, h, h2):
    """A copy of an entry table with the last entry of half-run h moved to the end of h2.

    Half-run 2s holds the +mu(t) entries of the triple in slot s, 2s + 1 its
    -mu(t) entries; h2 = h ^ 1 flips the entry's sign, h2 = h +- 2 moves it to
    another triple's run with its sign.
    """
    rows, cols, starts = (array(a.typecode, a) for a in table)
    e = starts[h + 1] - 1
    if h2 > h:
        end = starts[h2 + 1]
        for a in (rows, cols):
            a[e:end] = a[e + 1:end] + a[e:e + 1]
        for i in range(h + 1, h2 + 1):
            starts[i] -= 1
    else:
        start = starts[h2 + 1]
        for a in (rows, cols):
            a[start:e + 1] = a[e:e + 1] + a[start:e]
        for i in range(h2 + 1, h + 1):
            starts[i] += 1
    return rows, cols, starts


def _assert_mutants_raise(b, k):
    """A flipped sign, and an entry moved to another triple's run, in a copy of d_k."""
    table, dual = _entry_table(b, k), _entry_table(b, b + 3 - k)
    starts = table[2]
    h = next(h for h in range(len(starts) - 1) if starts[h] < starts[h + 1])
    mutants = [_moved(table, h, h ^ 1)]
    if len(starts) > 3:  # b = 3 has a single triple, so no other run
        mutants.append(_moved(table, h, h + 2 if h + 2 < len(starts) - 1 else h - 2))
    for mutant in mutants:
        with pytest.raises(RuntimeError, match="signed transpose"):
            _check_duality(b, k, mutant, dual)


@pytest.mark.parametrize("b", [*range(3, 12), 13])
def test_duality_certificate_catches_flipped_signs_and_moved_entries(b):
    for k in range(3, b + 1):
        _check_duality(b, k, _entry_table(b, k), _entry_table(b, b + 3 - k))
        _assert_mutants_raise(b, k)


def test_duality_certificate_at_the_rank_cap():
    # Rank 16 holds the largest tables.  Certifying every pair must cost less
    # than compiling the tables it reads.
    start = perf_counter()
    for k in range(3, 17):
        _entry_table(16, k)
    compiled = perf_counter() - start
    start = perf_counter()
    for k in range(3, 10):
        _check_duality(16, k, _entry_table(16, k), _entry_table(16, 19 - k))
    certified = perf_counter() - start
    assert certified < compiled, (certified, compiled)
    for k in range(3, 17):
        _assert_mutants_raise(16, k)


def test_failed_certificate_stops_homology(monkeypatch):
    # A mismatch raises out of the homology commands: no map is eliminated
    # twice in its place.
    import cuphom.cup_complex as cc
    from cuphom.homology import cup_homology, h_rank, mod_p_degree_dims

    real = cc._entry_table

    def flipped_d5(b, k):
        return _moved(real(b, k), 0, 1) if (b, k) == (6, 5) else real(b, k)

    monkeypatch.setattr(cc, "_entry_table", flipped_d5)
    dual_degree.cache_clear()
    f = ThreeForm(6, ((1, 2, 3, 1), (4, 5, 6, 1)))
    try:
        for compute in (cup_homology, h_rank, lambda f: mod_p_degree_dims(f, 2)):
            with pytest.raises(RuntimeError, match="d_5 is not the signed transpose of d_4"):
                compute(f)
    finally:
        dual_degree.cache_clear()


@pytest.mark.parametrize("b", [5, 9, 13])
def test_middle_map_certificate_checks_the_table_against_itself(b):
    # The self-dual d_m, 2m = b + 3, is its own dual: a flipped sign or an
    # entry moved to another triple's run breaks the rule between an entry
    # and its mirror, which the middle table never holds at the same place.
    m = (b + 3) // 2
    table = _entry_table(b, m)
    _check_duality(b, m, table, table)
    starts = table[2]
    held = [h for h in range(len(starts) - 1) if starts[h] < starts[h + 1]]
    for h in (held[0], held[len(held) // 2], held[-1]):
        for mutant in (_moved(table, h, h ^ 1), _moved(table, h, h + 2 if h < 2 else h - 2)):
            with pytest.raises(RuntimeError, match="signed transpose"):
                _check_duality(b, m, mutant, mutant)


@pytest.mark.parametrize("b", [5, 9, 13])
def test_skew_rows_are_exactly_skew(b):
    # Renaming each column to the row of its complement and signing it by
    # sigma(B^c) turns the middle map at b = 1 mod 4 into a skew matrix.
    rng = seeded(b)
    for f in (random_form(rng, b, coeff_max=4), surface_circle((b - 1) // 2)):
        rows, skew = boundary_rows(f, (b + 3) // 2), skew_rows(f)
        assert len(skew) == len(rows) and sum(map(len, skew)) == sum(map(len, rows))
        assert all(skew[j].get(i) == -v for i, row in enumerate(skew) for j, v in row.items())


def test_failed_middle_certificate_stops_homology(monkeypatch):
    # A flipped sign in the middle table of b = 5 raises before its skew
    # relabelling is built or any rank is taken from it.
    import cuphom.cup_complex as cc
    from cuphom.homology import cup_homology, h_rank, mod_p_degree_dims

    real = cc._entry_table

    def flipped_d4(b, k):
        return _moved(real(b, k), 0, 1) if (b, k) == (5, 4) else real(b, k)

    monkeypatch.setattr(cc, "_entry_table", flipped_d4)
    dual_degree.cache_clear()
    cc._skew_table.cache_clear()
    f = ThreeForm(5, ((1, 2, 3, 1), (1, 4, 5, 2), (2, 3, 4, -3)))
    try:
        for compute in (h_rank, cup_homology, lambda f: mod_p_degree_dims(f, 3)):
            with pytest.raises(RuntimeError, match="d_4 is not the signed transpose of d_4"):
                compute(f)
    finally:
        dual_degree.cache_clear()
        cc._skew_table.cache_clear()


def test_mod3_partition():
    # Maps come subcomplex by subcomplex; only maps two steps into their
    # subcomplex have a predecessor to compose with, and that pair is
    # checked before the map is yielded.
    def steps(f, top=None):
        rep, maps = checked_maps(f, top)
        out, checked = [], 0
        for k, _ in maps:
            out.append((k, len(rep.items) > checked))
            checked = len(rep.items)
        return out

    assert steps(trivial(2)) == []
    assert steps(trivial(5)) == [(3, False), (4, False), (5, False)]
    assert steps(trivial(8)) == [(3, False), (6, True), (4, False), (7, True),
                                 (5, False), (8, True)]
    assert steps(trivial(8), 6) == [(3, False), (6, True), (4, False), (5, False)]
    assert steps(trivial(5), 9) == steps(trivial(5))


def test_mod3_torus_boundary():
    rep, maps = checked_maps(torus3(4))
    assert list(maps) == [(3, [{0: 4}])]
    assert [(item.name, item.ok) for item in rep.items] == [("no composable pairs", True)]
    rep, maps = checked_maps(surface_circle(3))
    for k, rows in maps:
        assert rows == boundary_rows(surface_circle(3), k)
    assert rep.ok and len(rep.items) == 2  # d_{k-3} o d_k for k = 6, 7 at b = 7


def test_d_squared_reports():
    rng = seeded(88)
    assert verify_d_squared(trivial(10)).ok
    assert verify_d_squared(surface_circle(3)).ok
    for _ in range(10):
        assert verify_d_squared(random_form(rng, 7)).ok


def test_render_matrix_grid():
    # Lex basis of degree 3 puts (1,2,3) first and (1,4,5) sixth.
    text = render_matrix_grid(boundary_rows(surface_circle(2), 3), 10)
    assert text == "1 0 0 0 0 1 0 0 0 0\n"
    assert render_matrix_grid([{}, {1: -3}], 3) == "0 0 0\n0 -3 0\n"


def test_dump_boundary_matrices(tmp_path):
    paths = dump_boundary_matrices(torus3(2), tmp_path / "dump")
    assert len(paths) == 1
    assert Path(paths[0]).read_text() == "2\n"
    # Every dumped file is the contraction oracle's dense matrix as a grid.
    rng = seeded(99)
    for n, f in enumerate([surface_circle(2), torus3(4), random_form(rng, 6),
                           random_form(rng, 6)]):
        paths = dump_boundary_matrices(f, tmp_path / f"dump{n}")
        assert len(paths) == max(f.rank - 2, 0)
        for k, path in zip(range(3, f.rank + 1), paths):
            grid = "".join(" ".join(map(str, row)) + "\n" for row in contraction_matrix(f, k))
            assert Path(path).read_text() == grid
