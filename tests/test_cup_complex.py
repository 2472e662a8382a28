from math import comb

import pytest

from conftest import random_form, seeded

from cuphom.cup_complex import (boundary_matrix, boundary_rows, build_mod3_complexes,
                                dump_boundary_matrices, render_matrix_grid,
                                verify_d_squared)
from cuphom.forms import ThreeForm, surface_circle, torus3, trivial
from cuphom.oracles import contraction_matrix


def test_boundary_matrix_torus():
    bm = boundary_matrix(torus3(5), 3)
    assert (bm.source_degree, bm.target_degree) == (3, 0)
    assert bm.matrix.data == [[5]]


def test_boundary_matrix_trivial_is_zero():
    for k in range(7):
        assert boundary_matrix(trivial(6), k).matrix.is_zero()


def test_boundary_matrix_surface_circle():
    assert boundary_matrix(surface_circle(1), 3).matrix.data == [[1]]


def test_boundary_matrix_shapes():
    f = surface_circle(2)
    for k in range(f.rank + 1):
        m = boundary_matrix(f, k).matrix
        assert m.cols == comb(5, k)
        assert m.rows == (comb(5, k - 3) if k >= 3 else 0)
    with pytest.raises(ValueError):
        boundary_matrix(f, 6)
    with pytest.raises(ValueError):
        boundary_matrix(f, -1)


def test_boundary_matrix_known_entries():
    # mu = s ^ (e2 e3 + e4 e5): degree-4 blades contract to single basis vectors.
    m = boundary_matrix(surface_circle(2), 4).matrix
    cols = {}
    for c in range(m.cols):
        col = tuple(m.data[r][c] for r in range(m.rows))
        cols[c] = col
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
            m1 = boundary_matrix(f1, k).matrix
            m2 = boundary_matrix(f2, k).matrix
            ms = boundary_matrix(fsum, k).matrix
            assert ms.data == [[a + c for a, c in zip(r1, r2)]
                               for r1, r2 in zip(m1.data, m2.data)]


def test_boundary_entries_bounded():
    # Each entry accumulates at most C(k, 3) coefficients of the form.
    rng = seeded(78)
    for _ in range(10):
        b = rng.randint(3, 7)
        f = random_form(rng, b)
        peak = max((abs(a) for _, _, _, a in f.terms), default=0)
        for k in range(3, b + 1):
            m = boundary_matrix(f, k).matrix
            bound = comb(k, 3) * peak
            assert all(abs(v) <= bound for row in m.data for v in row)


def test_compiled_maps_match_contraction():
    # The compiled entry tables give, entry by entry, the matrices that
    # exterior.contract builds blade by blade, over Z and mod p, in every degree.
    rng = seeded(2026)
    forms = [trivial(b) for b in (0, 3, 8)]
    forms += [random_form(rng, rng.randint(1, 8)) for _ in range(60)]
    for f in forms:
        for k in range(f.rank + 1):
            dense = contraction_matrix(f, k)
            assert boundary_matrix(f, k).matrix.data == dense
            for p in (0, 2, 3, 5):
                reduced = [[v % p if p else v for v in row] for row in dense]
                want = [{c: v for c, v in enumerate(row) if v} for row in reduced]
                assert boundary_rows(f, k, p) == want


def test_mod3_partition():
    c0, c1, c2 = build_mod3_complexes(trivial(5))
    assert c0.degrees == (0, 3) and c1.degrees == (1, 4) and c2.degrees == (2, 5)
    c0, c1, c2 = build_mod3_complexes(trivial(2))
    assert c0.degrees == (0,) and c1.degrees == (1,) and c2.degrees == (2,)
    assert c0.boundaries == () and c1.boundaries == () and c2.boundaries == ()


def test_mod3_torus_boundary():
    c0, _, _ = build_mod3_complexes(torus3(4))
    assert len(c0.boundaries) == 1
    assert c0.boundaries[0].matrix.data == [[4]]


def test_d_squared_reports():
    rng = seeded(88)
    assert verify_d_squared(trivial(10)).ok
    assert verify_d_squared(surface_circle(3)).ok
    for _ in range(10):
        assert verify_d_squared(random_form(rng, 7)).ok


def test_render_matrix_grid():
    # Lex basis of degree 3 puts (1,2,3) first and (1,4,5) sixth.
    text = render_matrix_grid(boundary_matrix(surface_circle(2), 3).matrix)
    assert text == "1 0 0 0 0 1 0 0 0 0\n"


def test_dump_boundary_matrices(tmp_path):
    paths = dump_boundary_matrices(torus3(2), tmp_path / "dump")
    assert len(paths) == 1
    assert open(paths[0]).read() == "2\n"
