import json
import os
from math import comb
from pathlib import Path

import pytest

from conftest import run_all_shards, seeded

import cuphom.geography as geography
from cuphom.exterior import blade_basis
from cuphom.forms import ThreeForm, connected_sum, serialize_form, trivial
from cuphom.geography import (GeographyResult, check_reducible_constraints,
                              geography_scan, result_document,
                              run_shard_to_checkpoint, scan_shard, witness_key, write_result)
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


def _result_of(path):
    """The enumerated count and h -> witness map of a result document."""
    doc = json.loads(Path(path).read_text())
    return doc["enumerated_count"], {
        e["h"]: ThreeForm(e["witness"]["rank"], tuple(map(tuple, e["witness"]["terms"])))
        for e in doc["realized"]}


def test_shard_merge_independence(tmp_path):
    base = geography_scan(4, 1)
    for shards in (2, 3, 8):
        out = tmp_path / f"b4-{shards}.json"
        run_all_shards(4, 1, shards, out)
        assert _result_of(out) == (base.enumerated_count, base.realized)


def test_result_files_byte_identical(tmp_path):
    one = run_all_shards(4, 1, 1, tmp_path / "one.json")
    eight = run_all_shards(4, 1, 8, tmp_path / "eight.json")
    assert one == eight


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


def test_scan_validation(tmp_path):
    with pytest.raises(ValueError):
        geography_scan(0, 1)
    with pytest.raises(ValueError):
        geography_scan(7, 1)
    with pytest.raises(ValueError):
        geography_scan(3, 0)
    # The shard count is checked before the shard index.
    out = tmp_path / "b3.json"
    for shards, index in ((0, 0), (0, 1), (-1, 0)):
        with pytest.raises(ValueError, match="shard count must be >= 1"):
            scan_shard(3, 1, shards, index)
        with pytest.raises(ValueError, match="shard count must be >= 1"):
            run_shard_to_checkpoint(3, 1, shards, index, out)
    for index in (-1, 2):
        with pytest.raises(ValueError, match="shard index out of range"):
            run_shard_to_checkpoint(3, 1, 2, index, out)
    assert list(tmp_path.iterdir()) == []


def test_more_shards_than_prefixes(tmp_path):
    # Surplus shards are empty; the merged result is unchanged.
    wide = run_all_shards(3, 1, 200, tmp_path / "wide.json")
    assert wide.decode() == result_document(geography_scan(3, 1))
    b1 = tmp_path / "b1.json"
    run_all_shards(1, 1, 4, b1)
    assert _result_of(b1)[1] == {1: trivial(1)}


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
    # serialized document; the one-pass scan and every shard schedule must
    # still reproduce them.
    want = (GOLDEN / f"geography_b{b}_c{coeff_max}.json").read_bytes()
    direct = tmp_path / "direct.json"
    write_result(geography_scan(b, coeff_max), direct)
    assert direct.read_bytes() == want
    for shards in (1, 8, 81):
        assert run_all_shards(b, coeff_max, shards, tmp_path / f"sharded-{shards}.json") == want
    out = tmp_path / "checkpointed.json"
    for i in reversed(range(8)):
        run_shard_to_checkpoint(b, coeff_max, 8, i, out)
    assert out.read_bytes() == want


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("order", [[0], [2, 0, 1]])
@pytest.mark.parametrize("interrupted_write", [0, 1])
def test_interrupted_last_call_finishes_on_rerun(tmp_path, monkeypatch, order, interrupted_write):
    # The last call makes two atomic writes, the result and the sidecar.  The
    # run dies inside one of them, leaving half a temporary file; running
    # every shard again must finish the scan with the golden bytes.
    want = (GOLDEN / "geography_b4_c1.json").read_bytes()
    out, shards = tmp_path / "b4.json", len(order)
    for i in order[:-1]:
        assert run_shard_to_checkpoint(4, 1, shards, i, out) is False
    writes = []
    real_write = geography._write_atomic

    def dying_write(path, text):
        writes.append(path)
        if len(writes) - 1 == interrupted_write:
            Path(f"{path}.{os.getpid()}.tmp").write_text(text[: len(text) // 2], encoding="utf-8")
            raise Interrupted(path)
        real_write(path, text)

    monkeypatch.setattr(geography, "_write_atomic", dying_write)
    with pytest.raises(Interrupted):
        run_shard_to_checkpoint(4, 1, shards, order[-1], out)
    monkeypatch.undo()
    assert len(writes) == interrupted_write + 1
    assert [run_shard_to_checkpoint(4, 1, shards, i, out) for i in order] == \
        [False] * (shards - 1) + [True]
    assert out.read_bytes() == want
    # Every call after the finishing one is a no-op.
    assert run_shard_to_checkpoint(4, 1, shards, order[0], out) is False
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
