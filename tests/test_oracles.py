from math import comb

import pytest

from conftest import random_form, seeded

from cuphom.cup_complex import boundary_rows
from cuphom.exact_linalg import rank_over_field
from cuphom.forms import surface_circle, torus3, trivial
from cuphom.homology import (AbelianGroup, _q_ranks, cup_homology, h_mod_p, h_rank,
                             mod_p_degree_dims)
from cuphom.oracles import (field_homology_oracle, surface_circle_group,
                            surface_circle_expected)


def test_closed_form_genus1():
    assert [surface_circle_group(1, k) for k in range(4)] == [
        AbelianGroup(1), AbelianGroup(2), AbelianGroup(2), AbelianGroup(1)]


def test_closed_form_genus2_free():
    groups = [surface_circle_group(2, k) for k in range(6)]
    assert [g.free_rank for g in groups] == [1, 4, 5, 5, 4, 1]
    assert all(g.torsion == () for g in groups)


def test_closed_form_genus3_torsion():
    assert surface_circle_group(3, 3) == AbelianGroup(14, (2,))
    assert [surface_circle_group(3, k).free_rank for k in range(8)] == [1, 6, 14, 14, 14, 14, 6, 1]
    assert [k for k in range(8) if surface_circle_group(3, k).torsion] == [3]


def test_closed_form_degree0_and_validation():
    for g in (1, 2, 5, 8):
        assert surface_circle_group(g, 0) == AbelianGroup(1)
    with pytest.raises(ValueError):
        surface_circle_group(2, 6)
    with pytest.raises(ValueError):
        surface_circle_group(0, 0)


def test_closed_form_rank_formula_and_mirror():
    for g in range(1, 7):
        for k in range(g + 1):
            rk = surface_circle_group(g, k).free_rank
            assert rk == comb(2 * g, k) - (comb(2 * g, k - 2) if k >= 2 else 0)
            assert rk == surface_circle_group(g, 2 * g + 1 - k).free_rank


def test_surface_circle_expected_ranks():
    for g in range(1, 6):
        even, odd = surface_circle_expected(g)
        assert even.free_rank == comb(2 * g + 1, g)
        assert odd.free_rank == comb(2 * g + 1, g)


def test_surface_circle_expected_matches_direct_computation():
    # The load-bearing reconciliation: closed form vs the actual complex,
    # torsion included, for g <= 6 (rank 13).
    for g in range(1, 7):
        r = cup_homology(surface_circle(g))
        even, odd = surface_circle_expected(g)
        assert r.even == even, g
        assert r.odd == odd, g


def test_field_oracle_torus():
    assert field_homology_oracle(torus3(5), 0) == [0, 3, 3, 0]
    assert field_homology_oracle(torus3(2), 2) == [1, 3, 3, 1]
    assert field_homology_oracle(torus3(2), 0) == [0, 3, 3, 0]
    assert field_homology_oracle(trivial(4), 0) == [1, 4, 6, 4, 1]


def test_field_oracle_validation():
    with pytest.raises(ValueError):
        field_homology_oracle(torus3(1), 9)


def test_field_oracle_char0_matches_free_ranks():
    rng = seeded(909)
    for _ in range(30):
        f = random_form(rng, rng.randint(0, 7))
        r = cup_homology(f)
        assert field_homology_oracle(f, 0) == [g.free_rank for g in r.by_degree]


def test_field_oracle_matches_sparse_ranks():
    # Dense Bareiss vs the sparse elimination used by the main pipeline.
    rng = seeded(910)
    for _ in range(20):
        f = random_form(rng, rng.randint(3, 7))
        for p in (0, 2, 3, 5):
            dims = field_homology_oracle(f, p)
            if p == 0:
                ranks = _q_ranks(f)
            else:
                ranks = {k: rank_over_field(boundary_rows(f, k, p), p)
                         for k in range(3, f.rank + 1)}
            expect = [comb(f.rank, k) - ranks.get(k, 0) - ranks.get(k + 3, 0)
                      for k in range(f.rank + 1)]
            assert dims == expect


def test_h_rank_matches_dense_oracle():
    # The Q-rank (unit phase, then the fraction-free residual) against Bareiss.
    rng = seeded(911)
    for _ in range(60):
        f = random_form(rng, rng.randint(1, 8))
        dims = field_homology_oracle(f, 0)
        assert sum(dims[0::2]) == sum(dims[1::2])
        assert h_rank(f) == sum(dims[0::2])


def test_checks_do_not_use_the_unit_kernel(monkeypatch):
    # F_p ranks and the dense oracle share no code with the Q-rank's unit
    # phase, so the UCT check and the oracle stay independent of it.
    import cuphom.exact_linalg as el

    def no_kernel(rows, paired=False, any_pivot=False, stop=False):
        raise AssertionError("unit kernel called")

    monkeypatch.setattr(el, "_eliminate", no_kernel)
    f = random_form(seeded(912), 6)
    with pytest.raises(AssertionError, match="unit kernel"):
        h_rank(f)
    assert h_mod_p(f, 2) >= 1
    assert len(mod_p_degree_dims(f, 3)) == 7
    assert len(field_homology_oracle(f, 0)) == 7
