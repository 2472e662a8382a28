import json
from math import comb
from pathlib import Path

import pytest

from conftest import seeded

from cuphom.exterior import blade_basis
from cuphom.forms import ThreeForm, connected_sum, serialize_form, trivial
from cuphom.geography import (GeographyResult, check_reducible_constraints,
                              geography_scan,
                              run_shard_to_checkpoint, witness_key, write_result)
from cuphom.homology import h_rank

GOLDEN = Path(__file__).parent / "golden"


def test_scan_b3():
    res = geography_scan(3, 2)
    assert sorted(res.realized) == [3, 4]
    assert res.enumerated_count == 5
    assert res.realized[4].is_zero
    assert not res.realized[3].is_zero


def test_scan_b4_no_seven():
    res = geography_scan(4, 1)
    assert sorted(res.realized) == [6, 8]
    assert res.enumerated_count == 3 ** 4


def test_witnesses_reverify():
    res = geography_scan(4, 1)
    for h, witness in res.realized.items():
        assert witness.rank == 4
        assert int(h_rank(witness)) == h
        assert all(abs(a) <= 1 for _, _, _, a in witness.terms)


def test_realized_values_respect_bounds():
    from cuphom.combinatorics import lower_bound_L

    for b, coeff_max in ((2, 2), (3, 2), (4, 1)):
        res = geography_scan(b, coeff_max)
        for h in res.realized:
            assert lower_bound_L(b) <= h <= 2 ** (b - 1)


def test_doubling_closure_constructive():
    res3 = geography_scan(3, 1)
    res4 = geography_scan(4, 1)
    for h, witness in res3.realized.items():
        doubled = connected_sum(witness, trivial(1))
        assert int(h_rank(doubled)) == 2 * h
        assert 2 * h in res4.realized


def test_shard_merge_independence():
    base = geography_scan(4, 1, shards=1)
    for shards in (2, 3, 8):
        other = geography_scan(4, 1, shards=shards)
        assert other.enumerated_count == base.enumerated_count
        assert other.realized == base.realized


def test_result_files_byte_identical(tmp_path):
    p1, p8 = tmp_path / "one.json", tmp_path / "eight.json"
    write_result(geography_scan(4, 1, shards=1), p1)
    write_result(geography_scan(4, 1, shards=8), p8)
    assert p1.read_bytes() == p8.read_bytes()


def test_result_file_round_trip(tmp_path):
    res = geography_scan(3, 2)
    path = tmp_path / "b3.json"
    write_result(res, path)
    doc = json.loads(path.read_text())
    assert doc["b"] == 3 and doc["coeff_max"] == 2
    assert [e["h"] for e in doc["realized"]] == [3, 4]
    witnesses = {e["h"]: ThreeForm(e["witness"]["rank"], tuple(map(tuple, e["witness"]["terms"])))
                 for e in doc["realized"]}
    assert witnesses == res.realized
    assert doc["enumerated_count"] == res.enumerated_count


def test_checkpointed_shards_resume(tmp_path):
    out = tmp_path / "b4.json"
    # Scrambled shard order; completion only on the last one.
    assert run_shard_to_checkpoint(4, 1, 3, 2, out) is False
    assert not out.exists()
    assert run_shard_to_checkpoint(4, 1, 3, 0, out) is False
    # Re-running a finished shard is a no-op.
    assert run_shard_to_checkpoint(4, 1, 3, 0, out) is False
    assert run_shard_to_checkpoint(4, 1, 3, 1, out) is True
    direct = tmp_path / "direct.json"
    write_result(geography_scan(4, 1), direct)
    assert out.read_bytes() == direct.read_bytes()


def test_checkpoint_rejects_parameter_mismatch(tmp_path):
    out = tmp_path / "scan.json"
    run_shard_to_checkpoint(4, 1, 3, 0, out)
    with pytest.raises(ValueError, match="different scan parameters"):
        run_shard_to_checkpoint(4, 1, 5, 1, out)


def test_scan_validation():
    with pytest.raises(ValueError):
        geography_scan(0, 1)
    with pytest.raises(ValueError):
        geography_scan(7, 1)
    with pytest.raises(ValueError):
        geography_scan(3, 0)
    with pytest.raises(ValueError):
        geography_scan(3, 1, shards=0)


def test_more_shards_than_prefixes():
    # Surplus shards are empty; the merged result is unchanged.
    base = geography_scan(3, 1)
    wide = geography_scan(3, 1, shards=200)
    assert wide.realized == base.realized
    assert wide.enumerated_count == base.enumerated_count
    assert geography_scan(1, 1, shards=4).realized == {1: trivial(1)}


def test_reducible_constraints_b4():
    rep = check_reducible_constraints(geography_scan(4, 1))
    assert rep.ok
    # the zero form and the one-triple form are both block shaped
    assert any("block witness" in item.name for item in rep.items)


def test_reducible_constraints_reject_large_rank():
    res = GeographyResult(b=6, coeff_max=1, enumerated_count=0, realized={})
    with pytest.raises(ValueError):
        check_reducible_constraints(res)


@pytest.mark.parametrize("b, coeff_max", [(3, 2), (4, 1), (4, 2)])
def test_result_documents_match_golden(b, coeff_max, tmp_path):
    # Documents pinned before witnesses were chosen by key instead of by
    # serialized document; every shard schedule must still reproduce them.
    want = (GOLDEN / f"geography_b{b}_c{coeff_max}.json").read_bytes()
    for shards in (1, 8, 81):
        path = tmp_path / f"direct-{shards}.json"
        write_result(geography_scan(b, coeff_max, shards=shards), path)
        assert path.read_bytes() == want
    out = tmp_path / "checkpointed.json"
    for i in reversed(range(8)):
        run_shard_to_checkpoint(b, coeff_max, 8, i, out)
    assert out.read_bytes() == want


def _sign(x, y):
    return (x > y) - (x < y)


def test_witness_key_orders_like_documents():
    rng = seeded(3141)
    values = (-150, -100, -12, -10, -9, -2, -1, 1, 2, 9, 10, 11, 99, 100, 123)

    def random_terms(b):
        triples = rng.sample(blade_basis(b, 3), rng.randint(0, min(4, comb(b, 3))))
        return sorted(t + (rng.choice(values),) for t in triples)

    for _ in range(3000):
        b = rng.randint(3, 13)
        terms = random_terms(b)
        f = ThreeForm(b, tuple(terms))
        variants = [random_terms(b), [], terms[:-1], terms[:-1] + random_terms(b)[:1]]
        if terms:
            i, j, k, _ = terms[-1]
            variants.append(terms[:-1] + [(i, j, k, rng.choice(values))])
        for other in variants:
            coeffs = {tuple(t[:3]): t[3] for t in other}
            g = ThreeForm.from_coeffs(b, coeffs)
            assert (_sign(witness_key(f), witness_key(g))
                    == _sign(serialize_form(f), serialize_form(g))), (f, g)
