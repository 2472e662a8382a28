"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run pytest with -s to see them on
success).  All arithmetic is exact; tolerances are equalities plus the
stated wall-clock budgets.
"""

import time
from contextlib import contextmanager
from math import comb

from conftest import random_form, run_all_shards, seeded, signed_permutation

from cuphom.combinatorics import euler_sum, lower_bound_L, verify_identities
from cuphom.cup_complex import boundary_rows, verify_d_squared
from cuphom.exact_linalg import smith_normal_form
from cuphom.forms import (ThreeForm, connected_sum, mapping_torus, surface_circle, torus3,
                          transform, trivial)
from cuphom.geography import (check_reducible_constraints, geography_scan,
                              write_result)
from cuphom.homology import (cup_homology, h_mod_p, h_rank, mod_p_degree_dims,
                             uct_check)
from cuphom.oracles import field_homology_oracle, surface_circle_expected

_suite_seconds = {}


@contextmanager
def criterion(label, budget=None, suite=False):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    if suite:
        _suite_seconds[label] = elapsed
    if budget is not None:
        assert elapsed < budget, f"{label}: {elapsed:.2f}s exceeds {budget}s"
    print(f"PASS {label} ({elapsed:.2f}s)")


# -- Criterion 1: paper golden values (each bullet < 1 s) --------------------

def test_c1a_trivial_forms_standard():
    with criterion("criterion 1a: h(trivial(b)) = 2^(b-1) for b = 1..10", budget=1.0):
        for b in range(1, 11):
            assert h_rank(trivial(b)) == 2 ** (b - 1)


def test_c1b_torus_groups():
    with criterion("criterion 1b: torus3(n) groups for n = 1..6", budget=1.0):
        for n in range(1, 7):
            r = cup_homology(torus3(n))
            assert r.h == 3
            assert r.odd.render() == "Z^3"
            assert r.even.render() == ("Z^3" if n == 1 else f"Z^3 + Z/{n}")


def test_c1c_surface_circle_h():
    with criterion("criterion 1c: h(surface_circle(g)) = C(2g+1, g) for g = 1..4", budget=1.0):
        for g, expected in [(1, 3), (2, 10), (3, 35), (4, 126)]:
            assert h_rank(surface_circle(g)) == comb(2 * g + 1, g) == expected


def test_c1d_surface_circle_full_groups():
    with criterion("criterion 1d: surface_circle groups match closed form, g = 1..3",
                   budget=1.0):
        for g in (1, 2, 3):
            r = cup_homology(surface_circle(g))
            even, odd = surface_circle_expected(g)
            assert r.even == even and r.odd == odd


def test_c1e_mapping_torus():
    with criterion("criterion 1e: h(mapping_torus(w, v0)) = 2^v0 C(2w+1, w), w,v0 <= 3",
                   budget=1.0):
        for w in range(4):
            for v0 in range(4):
                assert h_rank(mapping_torus(w, v0)) == 2 ** v0 * comb(2 * w + 1, w)


def test_c1f_connected_sum_minima():
    with criterion("criterion 1f: T^3 # (S^1xS^2)^k golden values", budget=1.0):
        f4 = connected_sum(torus3(1), trivial(1))
        assert h_rank(f4) == 6 == lower_bound_L(4)
        f5 = connected_sum(f4, trivial(1))
        assert h_rank(f5) == 12
        assert 3 * 12 == 4 * lower_bound_L(5)  # h = (4/3) L(5) exactly


def test_c1g_torus6_mod_p():
    with criterion("criterion 1g: h_p(torus3(6)) = 4,4,3,3 for p = 2,3,5,7", budget=1.0):
        f = torus3(6)
        assert [h_mod_p(f, p) for p in (2, 3, 5, 7)] == [4, 4, 3, 3]


# -- Criterion 2: randomized property suites (< 2 min total) -----------------

def test_c2a_d_squared_zero():
    with criterion("criterion 2a: d^2 = 0 on 500 random complexes", suite=True):
        rng = seeded(1001)
        for _ in range(500):
            f = random_form(rng, rng.randint(1, 7))
            rep = verify_d_squared(f)
            assert rep.ok, rep.failures()


def test_c2b_even_odd_ranks_equal():
    with criterion("criterion 2b: h_ev = h_odd on 500 random forms", suite=True):
        rng = seeded(1002)
        for _ in range(500):
            f = random_form(rng, rng.randint(1, 7))
            r = cup_homology(f)
            assert r.h_ev == r.h_odd


def test_c2c_bounds():
    with criterion("criterion 2c: L(b) <= h <= 2^(b-1), minus 2 when nonzero, 500 forms",
                   suite=True):
        rng = seeded(1003)
        for _ in range(500):
            b = rng.randint(1, 7)
            f = random_form(rng, b)
            h = int(h_rank(f))
            assert lower_bound_L(b) <= h <= 2 ** (b - 1)
            if not f.is_zero and b >= 4:
                assert h <= 2 ** (b - 1) - 2


def test_c2d_connected_sum_rule():
    with criterion("criterion 2d: h(f1 # f2) = 2 h(f1) h(f2) on 200 random pairs",
                   suite=True):
        rng = seeded(1004)
        for _ in range(200):
            f1 = random_form(rng, rng.randint(1, 4))
            f2 = random_form(rng, rng.randint(1, 4))
            assert h_rank(connected_sum(f1, f2)) == 2 * h_rank(f1) * h_rank(f2)


def test_c2e_uct_and_field_oracle():
    with criterion("criterion 2e: uct mod 2,3,5 and oracle vs SNF ranks in char 0,2,3,5, "
                   "500 forms", suite=True):
        rng = seeded(1005)
        for _ in range(500):
            f = random_form(rng, rng.randint(1, 7))
            integral = cup_homology(f)
            for p in (2, 3, 5):
                rep = uct_check(integral, mod_p_degree_dims(f, p), p)
                assert rep.ok, rep.failures()
            snfs = {k: smith_normal_form(boundary_rows(f, k))
                    for k in range(3, f.rank + 1)}
            for p in (0, 2, 3, 5):
                ranks = {k: (len(s) if p == 0 else sum(1 for d in s if d % p))
                         for k, s in snfs.items()}
                expect = [comb(f.rank, k) - ranks.get(k, 0) - ranks.get(k + 3, 0)
                          for k in range(f.rank + 1)]
                assert field_homology_oracle(f, p) == expect


def test_c2f_h_invariance():
    with criterion("criterion 2f: h invariant under relabeling and negation, 500 forms",
                   suite=True):
        rng = seeded(1006)
        for _ in range(500):
            b = rng.randint(1, 7)
            f = random_form(rng, b)
            h = h_rank(f)
            perm = list(range(1, b + 1))
            rng.shuffle(perm)
            assert h_rank(transform(f, signed_permutation(perm))) == h
            assert h_rank(transform(f, signed_permutation(range(1, b + 1), -1))) == h


def test_c2_total_time():
    with criterion("criterion 2 total: randomized suites under 2 minutes"):
        assert len(_suite_seconds) == 6, "suite tests must run first"
        total = sum(_suite_seconds.values())
        assert total < 120.0, f"suites took {total:.1f}s"
        print(f"  (suites totalled {total:.1f}s)")


# -- Criterion 3: combinatorial identities (< 1 s) ---------------------------

def test_c3_identities():
    with criterion("criterion 3: S(b, j) identities for b <= 30", budget=1.0):
        rep = verify_identities(30)
        assert rep.ok, rep.failures()
        for b in range(1, 31):
            total = sum(abs(euler_sum(b, j)) for j in range(3))
            assert total == 2 * lower_bound_L(b)


# -- Criterion 4: geography ---------------------------------------------------

def test_c4_geography():
    results = {}
    with criterion("criterion 4a: b=3 coeff_max=2 realized set exactly {3, 4}", budget=5.0):
        results[3] = geography_scan(3, 2)
        assert sorted(results[3].realized) == [3, 4]
    with criterion("criterion 4b: b=4 coeff_max=1 realizes 6 and 8, never 7", budget=30.0):
        results[4] = geography_scan(4, 1)
        assert 6 in results[4].realized and 8 in results[4].realized
        assert 7 not in results[4].realized
    with criterion("criterion 4c: b=5 coeff_max=1 contains 10, 12, 16", budget=1800.0):
        results[5] = geography_scan(5, 1)
        assert {10, 12, 16} <= set(results[5].realized)
        # The least-document witnesses, as first computed by serializing forms.
        assert results[5].realized == {
            10: ThreeForm(5, ((1, 2, 3, -1), (1, 2, 4, -1), (1, 2, 5, -1), (1, 3, 4, -1))),
            12: ThreeForm(5, ((1, 2, 3, -1),)),
            16: trivial(5),
        }
    with criterion("criterion 4d: block-structured b=5 witnesses have h in {12, 16}"):
        rep = check_reducible_constraints(results[5])
        assert rep.ok, rep.failures()
    with criterion("criterion 4e: doubling closure from b=4 into b=5"):
        for h, witness in results[4].realized.items():
            doubled = connected_sum(witness, trivial(1))
            assert h_rank(doubled) == 2 * h
            assert 2 * h in results[5].realized


# -- Criterion 5: scan determinism --------------------------------------------

def test_c5_shard_determinism(tmp_path):
    with criterion("criterion 5: 1-shard and 8-shard scans are byte-identical"):
        # Checkpointed runs in scrambled shard order, each against the one-pass scan.
        for b, coeff_max in ((4, 1), (3, 2)):
            one = run_all_shards(b, coeff_max, 1, tmp_path / f"one{b}.json")
            eight = run_all_shards(b, coeff_max, 8, tmp_path / f"eight{b}.json")
            direct = tmp_path / f"direct{b}.json"
            write_result(geography_scan(b, coeff_max), direct)
            assert one == eight == direct.read_bytes()
