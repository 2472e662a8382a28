from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from conftest import FINISHES, random_form, seeded, signed_permutation
from test_exact_linalg import (_fraction_free_rank, _has_unit_row, _last_bound,
                               _min_scan_unit_phase)

from cuphom.cup_complex import boundary_rows, kept_degrees, skew_rows
from cuphom.exact_linalg import BOUND_PRIME, _eliminate, skew_q_rank
from cuphom.forms import (FormError, ThreeForm, connected_sum, mapping_torus, surface_circle,
                          torus3, transform, trivial)
from cuphom.homology import (AbelianGroup, _dims, _q_ranks, checked_homology, common_dim,
                             cup_homology, direct_sum, h_mod_p, h_rank, k_p, mod_p_degree_dims,
                             uct_check)
from cuphom.oracles import field_homology_oracle


def test_group_render_grammar():
    assert AbelianGroup(0, ()).render() == "0"
    assert AbelianGroup(1, ()).render() == "Z"
    assert AbelianGroup(2, ()).render() == "Z^2"
    assert AbelianGroup(0, (4,)).render() == "Z/4"
    assert AbelianGroup(3, (2, 6)).render() == "Z^3 + Z/2 + Z/6"


def test_group_normalization():
    assert AbelianGroup.from_parts(0, [2, 3]) == AbelianGroup(0, (6,))
    assert AbelianGroup.from_parts(0, [2, 2, 3]) == AbelianGroup(0, (2, 6))
    assert AbelianGroup.from_parts(1, [1, 1, 4]) == AbelianGroup(1, (4,))
    assert AbelianGroup.from_parts(0, [4, 6]) == AbelianGroup(0, (2, 12))
    assert direct_sum([AbelianGroup(1, (2,)), AbelianGroup(2, (3,))]) == AbelianGroup(3, (6,))


def test_homology_group_torus_degree0():
    assert cup_homology(torus3(4)).by_degree[0] == AbelianGroup(0, (4,))


def test_homology_group_torus_degree3():
    assert cup_homology(torus3(4)).by_degree[3] == AbelianGroup(0, ())


def test_homology_group_trivial_form():
    assert cup_homology(trivial(5)).by_degree[4] == AbelianGroup(5, ())


def test_cup_homology_eliminates_each_map_once(monkeypatch):
    # Each kept map d_k, k <= (b+3)/2, reaches Smith normal form exactly once
    # and no other map does: each dual d_{b+3-k} takes its partner's factors.
    import cuphom.homology as hom

    real_snf = hom.smith_normal_form

    def counted_snf(rows):
        unseen.remove(rows)  # raises if a map comes twice or is not a kept d_k
        return real_snf(rows)

    def no_rank(*args):
        raise AssertionError("cup_homology takes every rank from a Smith normal form")

    monkeypatch.setattr(hom, "smith_normal_form", counted_snf)
    monkeypatch.setattr(hom, "rank_over_field", no_rank)
    for f, h in ((surface_circle(3), 35), (mapping_torus(3, 1), 70)):  # b = 7 and b = 8
        unseen = [boundary_rows(f, k) for k in range(3, (f.rank + 3) // 2 + 1)]
        assert cup_homology(f).h == h
        assert unseen == []


def test_cup_homology_rejects_nonchain(monkeypatch, broken_d6):
    # No Smith normal form is taken after the failing pair d_3 o d_6.  The
    # walk goes d_3, d_6 | d_4 | d_5 at b = 6 and d_3, d_6, d_9 | d_4, d_7 |
    # d_5, d_8 at b = 9, so only d_3 is eliminated; the walk still checks
    # every later pair, so the report is complete.
    import cuphom.cup_complex as cc
    import cuphom.homology as hom

    seen = []
    real = hom.smith_normal_form

    def counted_snf(rows):
        seen.append(rows)
        return real(rows)

    monkeypatch.setattr(hom, "smith_normal_form", counted_snf)
    f = ThreeForm(6, ((1, 2, 3, 1), (4, 5, 6, 1)))
    assert [item.name for item in cc.verify_d_squared(f).failures()] == ["d_3 o d_6 = 0"]
    with pytest.raises(RuntimeError, match="d_3 o d_6 = 0 fails: not a chain complex"):
        cup_homology(f)
    assert seen == [boundary_rows(f, 3)]
    seen.clear()
    f = ThreeForm(9, ((1, 2, 3, 1), (4, 5, 6, 1), (7, 8, 9, 1)))
    rep, result = checked_homology(f)
    assert result is None and seen == [boundary_rows(f, 3)]
    assert [(item.name, item.ok) for item in rep.items] == [
        ("d_3 o d_6 = 0", False), ("d_6 o d_9 = 0", True), ("d_4 o d_7 = 0", True),
        ("d_5 o d_8 = 0", True)]


def test_cup_homology_torus_family():
    for n in range(2, 7):
        r = cup_homology(torus3(n))
        assert r.even == AbelianGroup(3, (n,))
        assert r.odd == AbelianGroup(3, ())
        assert r.h == 3
    r = cup_homology(torus3(1))
    assert r.even == AbelianGroup(3, ()) and r.odd == AbelianGroup(3, ())


def test_cup_homology_trivial():
    r = cup_homology(trivial(4))
    assert r.even == AbelianGroup(8, ()) and r.odd == AbelianGroup(8, ())
    assert r.h == 8


def test_zero_maps_skip_entry_tables(monkeypatch):
    # A form with no term, or none that survives mod p, has zero boundary
    # maps; at rank 16 compiling their entry tables would take seconds.
    import cuphom.cup_complex as cc

    def no_table(b, k):
        raise AssertionError(f"entry table ({b}, {k}) built for a zero map")

    monkeypatch.setattr(cc, "_entry_table", no_table)
    f = trivial(16)
    assert h_rank(f) == 2 ** 15
    assert h_mod_p(f, 2) == 2 ** 15
    r = cup_homology(f)
    assert [g.free_rank for g in r.by_degree] == [comb(16, k) for k in range(17)]
    assert r.even == AbelianGroup(2 ** 15) and r.odd == AbelianGroup(2 ** 15)
    even = ThreeForm(16, ((1, 2, 3, 2), (4, 5, 16, -6)))
    assert h_mod_p(even, 2) == 2 ** 15
    with pytest.raises(AssertionError, match="entry table"):
        h_mod_p(even, 3)


def test_cup_homology_rank0():
    r = cup_homology(trivial(0))
    assert r.even == AbelianGroup(1, ()) and r.odd == AbelianGroup(0, ())
    assert (r.h_ev, r.h_odd) == (1, 0)
    assert r.h == Fraction(1, 2)


def test_cup_homology_surface():
    assert cup_homology(surface_circle(2)).h == 10


def test_torus_sign_irrelevant():
    assert cup_homology(torus3(-5)).even == cup_homology(torus3(5)).even
    assert cup_homology(torus3(-5)).odd == cup_homology(torus3(5)).odd


def test_h_rank_agrees_with_full_computation():
    rng = seeded(303)
    for _ in range(40):
        f = random_form(rng, rng.randint(0, 7))
        r = cup_homology(f)
        assert h_rank(f) == r.h
        if f.rank >= 1:
            assert r.h_ev == r.h_odd


def test_h_mod_p_torus6():
    f = torus3(6)
    assert h_mod_p(f, 2) == 4
    assert h_mod_p(f, 3) == 4
    assert h_mod_p(f, 5) == 3
    assert h_mod_p(f, 7) == 3


def test_h_mod_p_trivial():
    for b in range(1, 7):
        for p in (2, 5):
            assert h_mod_p(trivial(b), p) == 2 ** (b - 1)


def test_h_mod_p_surface_torsion():
    # Genus 2 has torsion-free homology, so every h_p equals h = 10; the
    # first Z/2 appears at genus 3 and lifts the F_2 rank by one.
    assert h_mod_p(surface_circle(2), 2) == 10
    assert h_mod_p(surface_circle(3), 2) == 36
    assert h_mod_p(surface_circle(3), 3) == 35


def test_h_mod_p_rejects_rank0():
    with pytest.raises(FormError):
        h_mod_p(trivial(0), 3)
    with pytest.raises(FormError):
        h_mod_p(torus3(1), 6)


def test_field_oracle_matches_mod_p_dims():
    rng = seeded(404)
    for _ in range(25):
        f = random_form(rng, rng.randint(1, 7))
        for p in (2, 3, 5):
            assert field_homology_oracle(f, p) == mod_p_degree_dims(f, p)


def test_k_p_values():
    for b in range(1, 8):
        v = k_p(trivial(b), 1)
        assert v.doubled == 2 ** b
        assert v.log2_text == str(b)
    v = k_p(trivial(0), 1)
    assert v.h_p == Fraction(1, 2) and v.doubled == 1 and v.log2_text == "0"
    assert k_p(trivial(0), 7).doubled == 1
    v = k_p(torus3(1), 1)
    assert v.doubled == 6
    assert v.log2_text.startswith("2.5849625007")


def test_k_p_validates_p_at_every_rank():
    for f in (trivial(0), torus3(2), surface_circle(2)):
        for p in (0, 4, 6):
            with pytest.raises(FormError):
                k_p(f, p)
            with pytest.raises(FormError):
                h_mod_p(f, p)
    assert k_p(trivial(0), 1).h_p == k_p(trivial(0), 2).h_p == Fraction(1, 2)


def test_k_p_additive_on_exact_pairs():
    rng = seeded(505)
    for _ in range(30):
        f1 = random_form(rng, rng.randint(0, 4))
        f2 = random_form(rng, rng.randint(0, 4))
        for p in (1, 2, 3):
            v1, v2 = k_p(f1, p), k_p(f2, p)
            vs = k_p(connected_sum(f1, f2), p)
            assert vs.doubled == v1.doubled * v2.doubled


def test_kunneth_parity_products_mod_p():
    # Over F_p the even part of a connected sum is ev*ev + odd*odd and the
    # odd part is ev*odd + odd*ev, including rank-0 factors (ev 1, odd 0).
    rng = seeded(707)
    for _ in range(30):
        f1 = random_form(rng, rng.randint(0, 4))
        f2 = random_form(rng, rng.randint(0, 4))
        fs = connected_sum(f1, f2)
        for p in (2, 3):
            d1 = mod_p_degree_dims(f1, p)
            d2 = mod_p_degree_dims(f2, p)
            ds = mod_p_degree_dims(fs, p)
            e1, o1 = sum(d1[0::2]), sum(d1[1::2])
            e2, o2 = sum(d2[0::2]), sum(d2[1::2])
            assert sum(ds[0::2]) == e1 * e2 + o1 * o2
            assert sum(ds[1::2]) == e1 * o2 + o1 * e2


def test_k_p_stays_between_bounds():
    # 2^m(b) = 2 L(b) <= 2 h_p <= 2^b, i.e. m(b) <= k_p <= b on the exact pairs.
    from cuphom.combinatorics import lower_bound_L

    rng = seeded(808)
    for _ in range(40):
        b = rng.randint(1, 6)
        f = random_form(rng, b)
        for p in (1, 2, 5):
            v = k_p(f, p)
            assert 2 * lower_bound_L(b) <= v.doubled <= 2 ** b


def _uct(f, p):
    return uct_check(cup_homology(f), mod_p_degree_dims(f, p), p)


def test_uct_examples():
    assert _uct(torus3(4), 2).ok
    assert _uct(trivial(6), 3).ok
    rep = _uct(surface_circle(3), 2)
    assert rep.ok
    # the genus-3 Z/2 makes the t_2 terms genuinely nonzero
    assert any(d for d in cup_homology(surface_circle(3)).by_degree[2].torsion)
    # without them (the rational dims), degrees 2 and 5 disagree
    sc3 = surface_circle(3)
    rep = uct_check(cup_homology(sc3), field_homology_oracle(sc3, 0), 2)
    assert [item.name for item in rep.items if not item.ok] == ["degree 2", "degree 5"]


def test_h_invariance_under_relabel_and_negation():
    rng = seeded(606)
    for _ in range(20):
        b = rng.randint(1, 6)
        f = random_form(rng, b)
        perm = list(range(1, b + 1))
        rng.shuffle(perm)
        assert h_rank(transform(f, signed_permutation(perm))) == h_rank(f)
        assert h_rank(transform(f, signed_permutation(range(1, b + 1), -1))) == h_rank(f)


# 123 + 145 + 167 + 246 - 257 - 347 - 356: its F_2 homology is larger than its rational one.
G2 = ThreeForm.from_coeffs(7, {(1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1, (2, 4, 6): 1,
                               (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1})


def _transvections(rng, b, count=6):
    """Product of `count` random transvections e_i -> e_i + c e_j, c in {1, -1, 2, -2}."""
    m = signed_permutation(range(1, b + 1))
    for _ in range(count if b > 1 else 0):
        i, j = rng.sample(range(b), 2)
        c = rng.choice((1, -1, 2, -2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def test_invariants_unchanged_by_unimodular_change_of_basis():
    # A matrix in GL(b, Z) is an isomorphism of cohomology rings, so every
    # integral group, every F_p dimension and h must survive it.  Transvections
    # densify a form and grow its coefficients, which the torsion-heavy
    # families turn into work for Smith normal form.
    forms = [surface_circle(g) for g in (2, 3, 4)] + [mapping_torus(3, 1), G2]
    for seed in (1001, 1002, 1005):  # the first forms of three acceptance suites
        draw = seeded(seed)
        forms += [random_form(draw, draw.randint(1, 7)) for _ in range(4)]
    def invariants(f):
        return cup_homology(f).by_degree, [mod_p_degree_dims(f, p) for p in (2, 3, 5)], h_rank(f)

    rng = seeded(1717)
    for f in forms:
        expect = invariants(f)
        for _ in range(3):
            g = transform(f, _transvections(rng, f.rank))
            assert invariants(g) == expect, (f, g)


def _dense_or_sparse_form(rng, b, coeff_max, keep):
    return ThreeForm.from_coeffs(b, {t: rng.randint(-coeff_max, coeff_max)
                                     for t in combinations(range(1, b + 1), 3)
                                     if rng.random() < keep})


def _moduli_seen(monkeypatch):
    """Patch exact_linalg._rank_mod_p to record the modulus of each call; returns the record."""
    import cuphom.exact_linalg as el

    moduli = []
    real = el._rank_mod_p

    def counted(rows, p):
        moduli.append(p)
        return real(rows, p)

    monkeypatch.setattr(el, "_rank_mod_p", counted)
    return moduli


# 5% of the triples of rank 13, coefficients to 3: the middle map d_8 leaves
# a sparse skew residual of 505 rows and 2,818 entries, which rule (b) leaves
# open and the any-pivot kernel finishes (the Pfaffian finish would fill in).
SPARSE_B13 = _dense_or_sparse_form(seeded(4), 13, 3, 0.05)


def _is_skew(f, k):
    """Whether d_k is the middle map at b = 1 mod 4, which _q_ranks ranks in its skew form."""
    return 2 * k == f.rank + 3 and f.rank % 4 == 1


def _bounded(f, k):
    """(bound, more) of d_k as _q_ranks takes it: q_rank_bound, or for the
    skew middle map its exact skew_q_rank with nothing more."""
    import cuphom.exact_linalg as el

    if _is_skew(f, k):
        return el.skew_q_rank(skew_rows(f)), None
    return el.q_rank_bound(boundary_rows(f, k))


def test_certified_q_ranks_match_the_fraction_free_path(monkeypatch, finishes):
    # Every map's rank, certified or finished, against the unit phase plus
    # the reference fraction-free loop on the whole residual (the path
    # before bounds).  Middle maps at b = 1 mod 4 are never bounded: their
    # skew residual goes to the Pfaffian finish when it is dense, and to the
    # any-pivot kernel when it is sparse.
    rng = seeded(1111)
    forms = [surface_circle(g) for g in range(1, 7)]
    forms += [_dense_or_sparse_form(rng, rng.randint(3, 9), coeff_max, keep)
              for coeff_max in (1, 3, 9) for keep in (0.3, 1.0) for _ in range(5)]
    forms.append(SPARSE_B13)
    moduli = _moduli_seen(monkeypatch)
    bounded = left_open = skew_finished = 0
    finished = dict.fromkeys(FINISHES, 0)
    for f in forms:
        moduli.clear()
        finishes.update(dict.fromkeys(FINISHES, 0))
        ranks = _q_ranks(f)
        bounded += moduli.count(2)  # one rank modulo 2 per nonempty bounded residual
        for name in FINISHES:
            finished[name] += finishes[name]
        if f is SPARSE_B13:
            # Only its middle map is finished, by the any-pivot kernel.
            assert (finishes["any_pivot"], finishes["_pfaffian_rank"]) == (1, 0)
        for k in range(3, f.rank + 1):
            units, rest = _eliminate(boundary_rows(f, k))
            assert ranks[k] == units + _fraction_free_rank(rest), (f, k)
        # q_rank_bound finishes nothing until its iterator is drawn, so the
        # finishes here are those of the skew middle map.
        finishes.update(dict.fromkeys(FINISHES, 0))
        for k in kept_degrees(f.rank):
            left_open += _bounded(f, k)[1] is not None
        skew_finished += sum(finishes.values())
    # Rule (a) modulo 2 certified some residuals, and the others went on to
    # the prime or through a finisher.  At b <= 9 rule (b) seldom leaves a
    # map certified; the dense b = 10 form below checks it.
    assert bounded > left_open >= sum(finished.values()) - skew_finished, (
        bounded, left_open, finished, skew_finished)
    # The dense b = 9 middle maps took the Pfaffian finish.
    assert skew_finished > 0 and finished["_pfaffian_rank"] > 0, finished


def test_stopped_q_ranks_finish_to_the_fraction_free_path(monkeypatch, finishes):
    # Every kept map's bound, and its finish when left open, against the
    # whole unit phase plus the reference fraction-free loop, where the unit
    # phase stops at the dense switch.  The finish resumes that phase, so the
    # any-pivot kernel never sees a unit entry, checks rule (a) again and
    # only then eliminates exactly.  Dense +-1 b = 10: d_6 stops and takes
    # the any-pivot finish.  Dense coefficient-9 b = 9: d_4 and d_5 stop and
    # are certified there; the skew middle map, ranked by skew_q_rank, does
    # not stop and takes the Pfaffian finish.  The sparse b = 13 form stops
    # nowhere.
    import cuphom.exact_linalg as el

    real = el._eliminate

    def resumed_first(rows, paired=False, any_pivot=False, stop=False):
        assert not (any_pivot and _has_unit_row(rows)), "finish before the unit phase ended"
        assert not (paired and stop), "a paired unit phase stopped"
        return real(rows, paired, any_pivot, stop)

    monkeypatch.setattr(el, "_eliminate", resumed_first)
    rng = seeded(2424)
    forms = [_dense_or_sparse_form(rng, 9, 9, 1.0) for _ in range(2)]
    forms += [_dense_or_sparse_form(rng, 10, 1, 1.0) for _ in range(2)]
    seen = {"stopped": 0, "stopped then any_pivot": 0, "skew then _pfaffian_rank": 0}
    for f in forms + [SPARSE_B13]:
        for k in range(3, (f.rank + 3) // 2 + 1):
            skew = _is_skew(f, k)
            rows = skew_rows(f) if skew else boundary_rows(f, k)
            stopped = not skew and _has_unit_row(_eliminate(rows, stop=True)[1])
            assert not (stopped and f is SPARSE_B13), k
            units, rest = _eliminate(boundary_rows(f, k))
            rank = units + _fraction_free_rank(rest)
            before = dict(finishes)
            bound, more = _bounded(f, k)
            assert bound <= rank == _last_bound(bound, more), (f, k)
            seen["stopped"] += stopped
            seen["stopped then any_pivot"] += stopped and finishes["any_pivot"] > before["any_pivot"]
            seen["skew then _pfaffian_rank"] += (
                skew and finishes["_pfaffian_rank"] > before["_pfaffian_rank"])
    assert seen["stopped"] >= 8 and seen["stopped then any_pivot"] >= 2, seen
    assert seen["skew then _pfaffian_rank"] == 2, seen


def test_dense_b10_h_rank_stops_at_the_switch_and_finishes_nothing(monkeypatch, finishes):
    # Coefficients to 9 on every triple of rank 10: each unit phase ends at
    # the dense switch, as the reference unit phase with the same stop does,
    # so no unit pivot runs past it; rule (a) or rule (b) certifies every
    # bound, and no unit phase is resumed.
    import cuphom.exact_linalg as el

    calls = []
    real = el._eliminate

    def recorded(rows, paired=False, any_pivot=False, stop=False):
        given = [dict(r) for r in rows]
        units, rest = real(rows, paired, any_pivot, stop)
        assert (units, rest) == _min_scan_unit_phase(given, stop=True)
        calls.append((stop, _has_unit_row(rest)))
        return units, rest

    monkeypatch.setattr(el, "_eliminate", recorded)
    f = _dense_or_sparse_form(seeded(3), 10, 9, 1.0)
    assert h_rank(f) == common_dim(field_homology_oracle(f, 0))
    # d_3 .. d_6, once each; d_4, d_5 and d_6 stop with units left.
    assert calls == [(True, False)] + [(True, True)] * 3
    assert finishes == dict.fromkeys(FINISHES, 0), "exact finish ran"


def test_skew_q_rank_takes_no_modular_rank(monkeypatch, finishes):
    # The skew middle map is ranked exactly, with no rank modulo 2 or
    # modulo the bound prime, against the whole unit phase plus the
    # reference fraction-free loop on the map as built.  Multiples by 2P
    # leave no unit, so the whole map is the residual.
    moduli = _moduli_seen(monkeypatch)
    rng = seeded(2626)
    forms = [surface_circle(2), surface_circle(4)]
    forms += [random_form(rng, b) for b in (5, 9) for _ in range(4)]
    for f in forms:
        m = (f.rank + 3) // 2
        for c in (1, 2 * BOUND_PRIME):
            g = _scaled(f, c)
            units, rest = _eliminate(boundary_rows(g, m))
            moduli.clear()
            assert skew_q_rank(skew_rows(g)) == units + _fraction_free_rank(rest), (f, c)
            assert moduli == [], (f, c)
    assert finishes["_pfaffian_rank"] > 0 and finishes["any_pivot"] > 0, finishes


@pytest.mark.parametrize("b", [5, 9])
def test_skew_middle_degree_homology_never_vanishes(b):
    # Rule (b) could certify the middle map d_m, 2m = b + 3, only where
    # H_{m-3} = H_m = 0 (the two degrees are dual), which needs rank d_m =
    # C(b, m-3) - rank d_{m-3}.  That is 5 at b = 5; at b = 9 it is 84 for
    # the zero form, whose d_6 is 0, and 83 for any other (rank d_3 = 1).
    # A skew rank is even, so the exact dimensions there are never zero.
    rng = seeded(2700 + b)
    m = (b + 3) // 2
    forms = [trivial(b)] + [random_form(rng, b) for _ in range(12 if b == 5 else 6)]
    for f in forms:
        ranks = _q_ranks(f)
        dims = _dims(b, ranks)
        assert ranks[m] % 2 == 0 and dims[m - 3] == dims[m] > 0, (f, dims)
    assert dims == field_homology_oracle(forms[-1], 0)


def test_block_sums_finish_non_skew_open_maps_with_any_pivot(finishes):
    # The sums have even rank or b = 3 mod 4, so no map is skew; the maps
    # that mix the torus3(2) block with the other one keep an open residual
    # of entries ±2, which the any-pivot kernel finishes.  Of the blocks,
    # only surface_circle(4), b = 9, has a skew middle map, and its dense
    # residual takes the one Pfaffian finish.
    for f1, h1 in ((surface_circle(3), 35), (surface_circle(4), 126), (mapping_torus(3, 1), 70)):
        assert h_rank(f1) == h1
        before = dict(finishes)
        assert h_rank(connected_sum(f1, torus3(2))) == 2 * h1 * 3
        assert finishes["any_pivot"] > before["any_pivot"], f1
        assert finishes["_pfaffian_rank"] == before["_pfaffian_rank"], f1
    assert finishes["_pfaffian_rank"] == 1


def _scaled(f, c):
    return ThreeForm.from_coeffs(f.rank, {(i, j, k): c * a for i, j, k, a in f.terms})


def test_unlucky_prime_falls_back_to_the_exact_loop(finishes):
    # Multiples of 2 and of the bound prime vanish modulo both, so every bound
    # is 0 and no certificate fires: an exact finish must decide every nonzero
    # map of the kept half (the Pfaffian one for the dense skew middle map at
    # b = 5).  An odd multiple of the prime is certified modulo 2.
    assert h_rank(torus3(2 * BOUND_PRIME)) == 3
    assert sum(finishes.values()) == 1
    rng = seeded(1212)
    for _ in range(12):
        f = random_form(rng, rng.randint(3, 7))
        for c in (2 * BOUND_PRIME, 6 * BOUND_PRIME):
            g = _scaled(f, c)
            h = h_rank(f)
            finishes.update(dict.fromkeys(finishes, 0))
            assert h_rank(g) == h
            # One finish per nonzero kept map; its dual takes the same rank.
            kept = range(3, (f.rank + 3) // 2 + 1)
            nonzero = sum(1 for k in kept if any(boundary_rows(f, k)))
            assert sum(finishes.values()) == nonzero


def _drawn_bounds(monkeypatch):
    """Patch homology's q_rank_bound to record, per map left open after its
    F_2 bound, how many further bounds _q_ranks drew from its iterator."""
    import cuphom.exact_linalg as el
    import cuphom.homology as hom

    drawn = []

    def seen_bound(rows):
        bound, more = el.q_rank_bound(rows)
        if more is None:
            return bound, None
        drawn.append(0)
        slot = len(drawn) - 1

        def counted():
            for value in more:
                drawn[slot] += 1
                yield value
        return bound, counted()

    monkeypatch.setattr(hom, "q_rank_bound", seen_bound)
    return drawn


def test_q_rank_certificates_decide_without_the_exact_loop(monkeypatch, finishes):
    drawn = _drawn_bounds(monkeypatch)
    assert h_rank(G2) == 27
    assert h_rank(surface_circle(5)) == 462
    # The unit phase and rule (a), modulo 2 or else modulo the prime: G2's
    # F_2 homology is larger than its rational one, so modulo 2 leaves maps open.
    assert drawn and all(n == 1 for n in drawn), drawn
    drawn.clear()
    f = _dense_or_sparse_form(seeded(3), 10, 9, 1.0)
    assert _dims(f.rank, _q_ranks(f)) == field_homology_oracle(f, 0)
    assert drawn and not any(drawn), drawn  # rule (b) certified these maps modulo 2
    assert finishes == dict.fromkeys(FINISHES, 0), "exact finish ran"


def test_q_rank_stages_on_multiples_of_a_dense_form(monkeypatch, finishes):
    # The dense coefficient-9 b = 10 form f and two multiples, with the same
    # ranks.  f: every kept map is certified at its bound modulo 2, by rule
    # (a) or (b), with no rank modulo the prime and no finish.  2f: every
    # bound modulo 2 is 0, and the ranks modulo the prime certify every map.
    # 2Pf: both moduli give 0, so each nonzero kept map is finished.
    moduli = _moduli_seen(monkeypatch)
    f = _dense_or_sparse_form(seeded(3), 10, 9, 1.0)
    ranks = _q_ranks(f)
    assert _dims(f.rank, ranks) == field_homology_oracle(f, 0)
    stages = {}
    for c in (1, 2, 2 * BOUND_PRIME):
        moduli.clear()
        finishes.update(dict.fromkeys(FINISHES, 0))
        assert _q_ranks(_scaled(f, c)) == ranks
        stages[c] = (moduli.count(2), moduli.count(BOUND_PRIME), sum(finishes.values()))
    # Kept maps d_3 .. d_6; d_3, a single row, has a unit entry in f and
    # leaves no rows to bound.
    n = 4
    assert stages == {1: (n - 1, 0, 0), 2: (n, n, 0), 2 * BOUND_PRIME: (n, n, n)}, stages


def test_q_ranks_match_the_fraction_free_path_on_multiples(finishes):
    # _q_ranks of c·f against the whole unit phase plus the reference
    # fraction-free loop on f, for multipliers that vanish modulo 2, modulo
    # the bound prime, both or neither.
    rng = seeded(2525)
    forms = [random_form(rng, b) for b in range(3, 11) for _ in range(2)]
    forms += [surface_circle(g) for g in (3, 4, 5)] + [mapping_torus(3, 1)]
    for f in forms:
        kept = range(3, (f.rank + 3) // 2 + 1)
        expect = {k: _eliminate(boundary_rows(f, k)) for k in kept}
        expect = {k: units + _fraction_free_rank(rest) for k, (units, rest) in expect.items()}
        for c in (1, 2, BOUND_PRIME, 2 * BOUND_PRIME):
            ranks = _q_ranks(_scaled(f, c))
            assert {k: ranks[k] for k in kept} == expect, (f, c)
    assert finishes["any_pivot"] > 0 and finishes["_pfaffian_rank"] > 0, finishes


def test_rank_duality_makes_degree_dims_palindromes():
    # rank d_k = rank d_{b+3-k} over every field, which holds exactly when
    # dim H_k = dim H_{b-k} in every degree (d_0, d_1, d_2 are zero).  The
    # pipeline copies each rank across its pair, so the oracle, which
    # eliminates every map, decides.
    rng = seeded(1313)
    for _ in range(20):
        f = random_form(rng, rng.randint(3, 9))
        for p in (0, 2, 3):
            dims = _dims(f.rank, _q_ranks(f)) if p == 0 else mod_p_degree_dims(f, p)
            assert dims == field_homology_oracle(f, p) == dims[::-1], (p, dims)
