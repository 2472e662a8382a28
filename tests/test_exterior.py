from itertools import combinations

from conftest import random_form, seeded

from cuphom.exterior import blade_basis, contract


def test_blade_basis_lex_order():
    assert blade_basis(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert blade_basis(4, 0) == ((),)
    assert len(blade_basis(5, 3)) == 10


def test_blade_basis_out_of_range_is_empty():
    assert blade_basis(3, 4) == ()
    assert blade_basis(3, -1) == ()
    assert blade_basis(0, 0) == ((),)


def test_contract_single_term_full_blade():
    # mu = e1*e2*e3, positions (1,2,3): sign (-1)^6 = +1
    assert contract({(1, 2, 3): 1}, (1, 2, 3)) == {(): 1}


def test_contract_sign_from_positions():
    # mu = e2*e3*e4 inside (1,2,3,4): positions (2,3,4), sign (-1)^9 = -1
    assert contract({(2, 3, 4): 1}, (1, 2, 3, 4)) == {(1,): -1}


def test_contract_zero_form_and_low_degree():
    assert contract({}, (1, 2, 3, 4)) == {}
    assert contract({(1, 2, 3): 7}, (1, 2)) == {}
    assert contract({(1, 2, 3): 7}, ()) == {}


def test_contract_degree_bookkeeping():
    rng = seeded(11)
    for _ in range(50):
        b = rng.randint(3, 7)
        f = random_form(rng, b)
        k = rng.randint(3, b)
        blade = tuple(sorted(rng.sample(range(1, b + 1), k)))
        for rest in contract(f.coeffs, blade):
            assert len(rest) == k - 3
            assert set(rest) < set(blade)


def test_contract_linear_in_mu():
    rng = seeded(23)
    for _ in range(100):
        b = rng.randint(3, 7)
        f1 = random_form(rng, b)
        f2 = random_form(rng, b)
        summed = dict(f1.coeffs)
        for t, a in f2.coeffs.items():
            summed[t] = summed.get(t, 0) + a
        summed = {t: a for t, a in summed.items() if a}
        blade = tuple(sorted(rng.sample(range(1, b + 1), rng.randint(0, b))))
        merged = dict(contract(f1.coeffs, blade))
        for rest, a in contract(f2.coeffs, blade).items():
            merged[rest] = merged.get(rest, 0) + a
        merged = {t: a for t, a in merged.items() if a}
        assert contract(summed, blade) == merged


def test_double_contraction_vanishes_exhaustively():
    # mu ^ mu = 0, so contracting twice kills every blade; checked on all
    # 2^b blades for each rank up to 7.
    rng = seeded(37)
    for b in range(1, 8):
        for _ in range(5):
            f = random_form(rng, b)
            for k in range(b + 1):
                for blade in combinations(range(1, b + 1), k):
                    twice = {}
                    for rest, a in contract(f.coeffs, blade).items():
                        for rest2, a2 in contract(f.coeffs, rest).items():
                            twice[rest2] = twice.get(rest2, 0) + a * a2
                    assert not any(twice.values())
