from fractions import Fraction

import pytest

from cuphom.combinatorics import (bounds_report, euler_sum, lower_bound_L,
                                  verify_identities)
from cuphom.forms import connected_sum, surface_circle, torus3, trivial


def test_euler_sum_values():
    assert euler_sum(4, 2) == 6
    assert euler_sum(1, 1) == 1
    assert euler_sum(7, 1) == 7 - 35 + 1
    assert euler_sum(3, 0) == 0
    assert euler_sum(6, 0) == -18  # magnitude 2 * 3^2; the sign is the direct sum's
    assert euler_sum(1, 0) == 1 and euler_sum(1, 2) == 0


def test_euler_sum_validation():
    with pytest.raises(ValueError):
        euler_sum(5, 3)
    with pytest.raises(ValueError):
        euler_sum(0, 0)


def test_lower_bound_L():
    assert lower_bound_L(1) == 1
    assert lower_bound_L(4) == 6
    assert lower_bound_L(5) == 9
    assert [lower_bound_L(b) for b in range(1, 9)] == [1, 2, 3, 6, 9, 18, 27, 54]
    with pytest.raises(ValueError):
        lower_bound_L(0)


def test_verify_identities_30():
    rep = verify_identities(30)
    assert rep.ok, rep.failures()


def test_verify_identities_validation():
    with pytest.raises(ValueError):
        verify_identities(1)


def test_bounds_report_surface():
    rep = bounds_report(surface_circle(2), 10)
    assert rep.ok
    names = [item.name for item in rep.items]
    assert any("L(5)" in n for n in names)
    irred = [item for item in rep.items if "4/3" in item.name]
    assert irred and "skipped" in irred[0].detail  # one block: not a connected sum


def test_bounds_report_trivial_skips_nonzero_branch():
    rep = bounds_report(trivial(7), 64)
    assert rep.ok
    skip = [item for item in rep.items if "nonzero form" in item.name]
    assert skip and "skipped" in skip[0].detail


def test_bounds_report_connected_sum_equality_case():
    # T^3 # (S^1 x S^2) # (S^1 x S^2): h = 12 = (4/3) L(5) exactly.
    f = connected_sum(connected_sum(torus3(1), trivial(1)), trivial(1))
    rep = bounds_report(f, 12)
    assert rep.ok
    irred = [item for item in rep.items if "4/3" in item.name]
    assert irred and "skipped" not in irred[0].detail
    # The pieces come from the support, so a value below (4/3) L(5) fails.
    assert [item.name for item in bounds_report(f, 11).failures()] == [irred[0].name]


def test_bounds_report_two_odd_factors_not_applicable():
    f = connected_sum(torus3(1), torus3(1))
    rep = bounds_report(f, 18)
    irred = [item for item in rep.items if "4/3" in item.name]
    assert irred and "skipped" in irred[0].detail


def test_bounds_report_rejects_rank0():
    with pytest.raises(ValueError):
        bounds_report(trivial(0), Fraction(1, 2))
