from math import comb

import pytest

from conftest import random_form, seeded

from cuphom.cup_complex import (boundary_rows, composites, dump_boundary_matrices,
                                render_matrix_grid, verify_d_squared)
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


def test_mod3_partition():
    # Maps come subcomplex by subcomplex; only maps two steps into their
    # subcomplex have a predecessor to compose with.
    def steps(f):
        return [(k, bad is not None) for k, _, bad in composites(f)]

    assert steps(trivial(2)) == []
    assert steps(trivial(5)) == [(3, False), (4, False), (5, False)]
    assert steps(trivial(8)) == [(3, False), (6, True), (4, False), (7, True),
                                 (5, False), (8, True)]


def test_mod3_torus_boundary():
    assert list(composites(torus3(4))) == [(3, [{0: 4}], None)]
    for k, rows, bad in composites(surface_circle(3)):
        assert rows == boundary_rows(surface_circle(3), k)
        assert bad in (None, [])


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
    assert open(paths[0]).read() == "2\n"
    # Every dumped file is the contraction oracle's dense matrix as a grid.
    rng = seeded(99)
    for n, f in enumerate([surface_circle(2), torus3(4), random_form(rng, 6),
                           random_form(rng, 6)]):
        paths = dump_boundary_matrices(f, tmp_path / f"dump{n}")
        assert len(paths) == max(f.rank - 2, 0)
        for k, path in zip(range(3, f.rank + 1), paths):
            grid = "".join(" ".join(map(str, row)) + "\n" for row in contraction_matrix(f, k))
            assert open(path).read() == grid
