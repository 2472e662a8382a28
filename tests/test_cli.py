import json
import os
import time
from pathlib import Path

import pytest

from cuphom.cli import main
from cuphom.cup_complex import boundary_rows, skew_rows
from cuphom.forms import (ThreeForm, connected_sum, mapping_torus, parse_form, serialize_form,
                          surface_circle, torus3, trivial)
from cuphom.geography import geography_scan

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FORMS = {"torus3(6)": torus3(6), "surface_circle(3)": surface_circle(3),
                "surface_circle(5)": surface_circle(5), "trivial(0)": trivial(0)}


def write_form(path, form):
    path.write_text(serialize_form(form))
    return str(path)


def test_h_command(tmp_path, capsys):
    path = write_form(tmp_path / "t5.json", torus3(5))
    assert main(["h", path]) == 0
    assert capsys.readouterr().out == "h = 3\n"


def test_h_command_rank0(tmp_path, capsys):
    path = write_form(tmp_path / "r0.json", trivial(0))
    assert main(["h", path]) == 0
    assert capsys.readouterr().out == "h = 1/2\n"


def test_compute_text(tmp_path, capsys):
    path = write_form(tmp_path / "t5.json", torus3(5))
    assert main(["compute", path]) == 0
    out = capsys.readouterr().out
    assert "degree 0: Z/5" in out
    assert "even: Z^3 + Z/5" in out
    assert "odd: Z^3" in out
    assert out.endswith("h = 3\n")


def test_compute_rank0(tmp_path, capsys):
    path = write_form(tmp_path / "r0.json", trivial(0))
    assert main(["compute", path]) == 0
    out = capsys.readouterr().out
    assert "even: Z" in out and "odd: 0" in out and "h = 1/2" in out


def test_compute_json_stable(tmp_path, capsys):
    path = write_form(tmp_path / "t5.json", torus3(5))
    assert main(["compute", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["compute", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["even"] == "Z^3 + Z/5"
    assert doc["h"] == "3"
    assert list(doc) == ["rank", "prime", "degrees", "even", "odd", "h"]


def test_compute_mod_p(tmp_path, capsys):
    path = write_form(tmp_path / "t6.json", torus3(6))
    assert main(["compute", path, "--prime", "3"]) == 0
    out = capsys.readouterr().out
    assert "h_3 = 4" in out
    assert main(["compute", path, "--prime", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["h_5"] == "3"


def test_compute_dump_matrices(tmp_path, capsys):
    path = write_form(tmp_path / "t2.json", torus3(2))
    dump = tmp_path / "mats"
    assert main(["compute", path, "--dump-matrices", str(dump)]) == 0
    assert (dump / "boundary_3.txt").read_text() == "2\n"


def test_sum_command(tmp_path, capsys):
    a = write_form(tmp_path / "a.json", torus3(1))
    b = write_form(tmp_path / "b.json", trivial(1))
    out = tmp_path / "sum.json"
    assert main(["sum", a, b, "-o", str(out)]) == 0
    f = parse_form(out.read_text())
    assert f.rank == 4 and f.terms == ((1, 2, 3, 1),)


def test_builtin_command(tmp_path):
    out = tmp_path / "sc2.json"
    assert main(["builtin", "surface_circle", "--g", "2", "-o", str(out)]) == 0
    assert parse_form(out.read_text()) == surface_circle(2)
    out2 = tmp_path / "mt.json"
    assert main(["builtin", "mapping_torus", "--w", "1", "--v0", "2", "-o", str(out2)]) == 0
    assert parse_form(out2.read_text()).rank == 5


def _replace_failing_at(call):
    """os.replace that raises OSError on its ``call``-th call (1-based)."""
    calls, real_replace = [], os.replace

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == call:
            raise OSError(f"interrupted before {dst}")
        real_replace(src, dst)

    return replace


def test_interrupted_sum_and_builtin_keep_the_old_file(tmp_path, capsys, monkeypatch):
    # -o onto an existing form file: a write that dies keeps the old bytes and
    # exits 2; a whole write replaces them.  Neither leaves a temporary file.
    a = write_form(tmp_path / "a.json", torus3(1))
    b = write_form(tmp_path / "b.json", trivial(1))
    out = tmp_path / "out.json"
    old = serialize_form(surface_circle(2)).encode()
    for argv, want in ((["sum", a, b], connected_sum(torus3(1), trivial(1))),
                       (["builtin", "torus3", "--n", "2"], torus3(2))):
        out.write_bytes(old)
        with monkeypatch.context() as m:
            m.setattr(os, "replace", _replace_failing_at(1))
            assert main([*argv, "-o", str(out)]) == 2
        assert "interrupted" in capsys.readouterr().err
        assert out.read_bytes() == old
        assert main([*argv, "-o", str(out)]) == 0
        assert out.read_text() == serialize_form(want)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json", "out.json"]


def test_interrupted_dump_keeps_each_old_grid_whole(tmp_path, capsys, monkeypatch):
    # A second --dump-matrices into the same directory dies at its second
    # file: boundary_3 is the new grid, boundary_4 and _5 are the old ones.
    first, second = surface_circle(2), ThreeForm(5, ((1, 2, 3, 2), (2, 4, 5, -1)))
    grids = {}
    for name, f in (("first", first), ("second", second)):
        assert main(["compute", write_form(tmp_path / f"{name}.json", f),
                     "--dump-matrices", str(tmp_path / name)]) == 0
        grids[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert sorted(grids["first"]) == [f"boundary_{k}.txt" for k in (3, 4, 5)]
    assert grids["first"] != grids["second"]
    dump = tmp_path / "dump"
    assert main(["compute", str(tmp_path / "first.json"), "--dump-matrices", str(dump)]) == 0
    with monkeypatch.context() as m:
        m.setattr(os, "replace", _replace_failing_at(2))
        assert main(["compute", str(tmp_path / "second.json"), "--dump-matrices",
                     str(dump)]) == 2
    assert "interrupted" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in dump.iterdir()} == \
        {**grids["first"], "boundary_3.txt": grids["second"]["boundary_3.txt"]}


def test_builtin_wrong_params_exit2(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["builtin", "torus3", "--g", "2", "-o", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bounds_command(capsys):
    assert main(["bounds", "--b", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "b\tS0\tS1\tS2\tL\tupper"
    assert out[1] == "5\t-9\t0\t9\t9\t16"


def test_verify_pass(tmp_path, capsys):
    path = write_form(tmp_path / "sc2.json", surface_circle(2))
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    assert "FAIL" not in out


def test_verify_random_rank7(tmp_path, capsys):
    import random

    rng = random.Random(42)
    coeffs = {}
    from cuphom.exterior import blade_basis

    for t in blade_basis(7, 3):
        a = rng.randint(-9, 9)
        if a:
            coeffs[t] = a
    path = write_form(tmp_path / "b7.json", ThreeForm.from_coeffs(7, coeffs))
    assert main(["verify", str(path)]) == 0
    assert "verify: PASS" in capsys.readouterr().out


def test_verify_with_primes(tmp_path, capsys):
    path = write_form(tmp_path / "t4.json", torus3(4))
    assert main(["verify", path, "--primes", "2,7"]) == 0
    out = capsys.readouterr().out
    assert "mod 2" in out and "mod 7" in out


def test_verify_bad_primes_exit2(tmp_path, capsys):
    path = write_form(tmp_path / "t4.json", torus3(4))
    assert main(["verify", path, "--primes", "2,x"]) == 2


def test_missing_file_exit2(capsys):
    assert main(["h", "/nonexistent/form.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_form_exit2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rank": 3, "terms": [[3, 2, 1, 1]]}')
    assert main(["h", str(path)]) == 2
    assert "increasing" in capsys.readouterr().err


def test_infeasible_rank_exit2(tmp_path, capsys, monkeypatch):
    # Rank 17 is past the feasibility cap: refused before any map is built.
    import cuphom.cup_complex as cc
    import cuphom.homology as hom

    def no_build(*args):
        raise AssertionError("a boundary map was built")

    for module in (cc, hom):
        monkeypatch.setattr(module, "boundary_rows", no_build)
    monkeypatch.setattr(cc, "_entry_table", no_build)
    path = tmp_path / "r17.json"
    path.write_text('{"rank": 17, "terms": [[1, 2, 3, 1]]}')
    assert main(["h", str(path)]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_bad_arguments_exit2_before_any_map(tmp_path, capsys, monkeypatch):
    # A --primes entry that is not prime, and a --dump-matrices directory
    # that cannot be made, are refused before any map is built.
    import cuphom.cup_complex as cc
    import cuphom.homology as hom

    def no_build(*args):
        raise AssertionError("a boundary map was built")

    for module in (cc, hom):
        monkeypatch.setattr(module, "boundary_rows", no_build)
    monkeypatch.setattr(cc, "_entry_table", no_build)
    path = write_form(tmp_path / "t4.json", torus3(4))
    assert main(["verify", path, "--primes", "2,4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "4 is not prime" in captured.err
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["compute", path, "--dump-matrices", str(blocker)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(blocker) in captured.err
    assert blocker.read_text() == ""


def test_unknown_subcommand_exit2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_geography_command(tmp_path, capsys):
    out = tmp_path / "b3.json"
    assert main(["geography", "--b", "3", "--coeff-max", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    expected = geography_scan(3, 2)
    assert doc["enumerated_count"] == expected.enumerated_count == 5
    witnesses = {e["h"]: ThreeForm(e["witness"]["rank"], tuple(map(tuple, e["witness"]["terms"])))
                 for e in doc["realized"]}
    assert sorted(witnesses) == [3, 4]
    assert witnesses == expected.realized
    assert "realized h: [3, 4]" in capsys.readouterr().out


def test_geography_sharded_cli(tmp_path, capsys):
    out = tmp_path / "b4.json"
    for shard in (1, 0, 2):
        code = main(["geography", "--b", "4", "--coeff-max", "1", "--out", str(out),
                     "--shards", "3", "--shard", str(shard)])
        assert code == 0
    direct = tmp_path / "direct.json"
    assert main(["geography", "--b", "4", "--coeff-max", "1", "--out", str(direct)]) == 0
    assert out.read_bytes() == direct.read_bytes()


def test_geography_shards_without_shard_exit2(tmp_path, capsys):
    # Shards run only as separate checkpointed invocations.
    out = tmp_path / "b4.json"
    assert main(["geography", "--b", "4", "--coeff-max", "1", "--out", str(out),
                 "--shards", "3"]) == 2
    assert "--shards needs --shard" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shards, shard, message", [("0", "0", "shard count must be >= 1"),
                                                    ("3", "3", "shard index out of range")])
def test_geography_bad_shard_exit2(tmp_path, capsys, shards, shard, message):
    out = tmp_path / "b4.json"
    assert main(["geography", "--b", "4", "--coeff-max", "1", "--out", str(out),
                 "--shards", shards, "--shard", shard]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_output_matches_golden(tmp_path, capsys):
    # Exit code and stdout, byte for byte, of compute (text, --json,
    # --prime), verify (default primes, --primes 2,7) and h on four forms.
    cases = json.loads((GOLDEN / "cli_outputs.json").read_text())
    assert len(cases) == 28
    paths = {name: write_form(tmp_path / f"form{i}.json", form)
             for i, (name, form) in enumerate(GOLDEN_FORMS.items())}
    for case in cases:
        argv = [case["args"][0], paths[case["form"]], *case["args"][1:]]
        assert main(argv) == case["exit"], argv
        assert capsys.readouterr().out == case["stdout"], argv


def test_each_map_eliminated_once_per_ring(tmp_path, capsys, monkeypatch):
    # Only the kept half d_k, k <= (b+3)/2, is eliminated, once per ring and
    # command; each dual d_{b+3-k} takes its partner's result.  Odd and even b.
    import cuphom.homology as hom

    snf_seen, rank_seen, q_seen = [], [], []
    real_snf, real_rank = hom.smith_normal_form, hom.rank_over_field

    def counted_snf(rows):
        snf_seen.append(rows)
        return real_snf(rows)

    def counted_rank(rows, characteristic):
        rank_seen.append((characteristic, [dict(r) for r in rows]))
        return real_rank(rows, characteristic)

    def counted_q(name):
        real = getattr(hom, name)

        def counted(rows):
            q_seen.append((name, [dict(r) for r in rows]))
            return real(rows)
        return counted

    monkeypatch.setattr(hom, "smith_normal_form", counted_snf)
    monkeypatch.setattr(hom, "rank_over_field", counted_rank)
    for name in ("q_rank_bound", "skew_q_rank"):
        monkeypatch.setattr(hom, name, counted_q(name))

    # b = 7, 8 and 9; at b = 9 = 1 mod 4 the self-dual d_6 is ranked in its skew form.
    for f, h, h_2 in ((surface_circle(3), 35, 36), (mapping_torus(3, 1), 70, 72),
                      (surface_circle(4), 126, 136)):
        path = write_form(tmp_path / "f.json", f)
        kept = range(3, (f.rank + 3) // 2 + 1)
        q_inputs = [("q_rank_bound", boundary_rows(f, k)) for k in kept]
        if f.rank % 4 == 1:
            q_inputs[-1] = ("skew_q_rank", skew_rows(f))  # the middle map, 2k = b + 3

        def expect_ranks(primes):
            return sorted(((p, boundary_rows(f, k, p)) for p in primes for k in kept), key=repr)

        snf_seen.clear()
        rank_seen.clear()
        q_seen.clear()
        assert main(["verify", path, "--primes", "2,3"]) == 0
        assert "verify: PASS" in capsys.readouterr().out
        assert sorted(snf_seen, key=repr) == sorted((boundary_rows(f, k) for k in kept), key=repr)
        assert sorted(rank_seen, key=repr) == expect_ranks((2, 3))
        assert q_seen == []

        snf_seen.clear()
        rank_seen.clear()
        assert main(["compute", path, "--prime", "2"]) == 0
        assert capsys.readouterr().out.endswith(f"h_2 = {h_2}\n")
        assert snf_seen == [] and q_seen == []
        assert sorted(rank_seen, key=repr) == expect_ranks((2,))

        rank_seen.clear()
        assert main(["h", path]) == 0
        assert capsys.readouterr().out == f"h = {h}\n"
        assert snf_seen == [] and rank_seen == []
        assert sorted(q_seen, key=repr) == sorted(q_inputs, key=repr)


def test_verify_reports_a_broken_complex(tmp_path, capsys, monkeypatch, broken_d6):
    def no_later_stage(*args):
        raise AssertionError("verify went past the check of a broken complex")

    monkeypatch.setattr("cuphom.combinatorics.bounds_report", no_later_stage)
    monkeypatch.setattr("cuphom.cli.mod_p_degree_dims", no_later_stage)
    path = write_form(tmp_path / "f.json", ThreeForm(6, ((1, 2, 3, 1), (4, 5, 6, 1))))
    assert main(["verify", path, "--primes", "2"]) == 1
    out = capsys.readouterr().out
    assert "[d-squared on rank 6] FAIL d_3 o d_6 = 0" in out
    assert out.endswith("verify: FAIL\n")


def test_verify_builds_each_map_and_product_once(tmp_path, capsys, monkeypatch):
    # The d∘d check and the homology share one walk: every integral map is
    # built once and every composable pair multiplied once; only the mod-p
    # maps of the UCT check are built apart.  compute walks the same way up
    # to d_top, top = (b+6)/2, the last pair that is not a transpose.
    import cuphom.cup_complex as cc
    import cuphom.homology as hom

    built, products = [], []
    real_rows, real_product = cc.boundary_rows, cc.sparse_product

    def counted_rows(f, k, p=0):
        built.append((k, p))
        return real_rows(f, k, p)

    def counted_product(A, B):
        products.append((len(A), len(B)))
        return real_product(A, B)

    monkeypatch.setattr(cc, "boundary_rows", counted_rows)
    monkeypatch.setattr(hom, "boundary_rows", counted_rows)
    monkeypatch.setattr(cc, "sparse_product", counted_product)
    for f, h in ((surface_circle(5), 462), (mapping_torus(3, 1), 70)):  # b = 11 and b = 8
        built.clear()
        products.clear()
        path = write_form(tmp_path / "f.json", f)
        assert main(["verify", path, "--primes", "2"]) == 0
        assert capsys.readouterr().out.endswith("verify: PASS\n")
        b = f.rank
        assert sorted(k for k, p in built if p == 0) == list(range(3, b + 1))
        assert sorted(k for k, p in built if p == 2) == list(range(3, (b + 3) // 2 + 1))
        assert len(products) == b - 5  # d_{k-3} o d_k for k = 6..b

        built.clear()
        products.clear()
        assert main(["compute", path]) == 0
        assert capsys.readouterr().out.endswith(f"h = {h}\n")
        top = (b + 6) // 2
        assert sorted(built) == [(k, 0) for k in range(3, top + 1)]
        assert len(products) == top - 5  # d_{k-3} o d_k for k = 6..top


def test_sum_then_verify_applies_the_connected_sum_bound(tmp_path, capsys):
    # T^3 # (S^1 x S^2)^2: the support splits as (3, 1, 1), and h = 12 = (4/3) L(5).
    t, s, out = (str(tmp_path / name) for name in ("t.json", "s.json", "sum.json"))
    assert main(["builtin", "torus3", "--n", "1", "-o", t]) == 0
    assert main(["builtin", "trivial", "--b", "2", "-o", s]) == 0
    assert main(["sum", t, s, "-o", out]) == 0
    assert main(["verify", out]) == 0
    printed = capsys.readouterr().out
    assert "3*12 >= 4*9" in printed
    assert printed.endswith("verify: PASS\n")


@pytest.mark.parametrize("sidecar", ['{"b": 3, "coeff_max": 1, "shards": 2}', "[1, 2]",
                                     '{"b": 3, "coeff_max": 1, "shards": 2, "completed": {}, '
                                     '"enumerated_count": 0, "partial": {}}',
                                     '{"b": 3, "coeff_max": 1, "shards": 2, "completed": ["x"], '
                                     '"enumerated_count": 0, "partial": {}}',
                                     # Witness terms that are not a sequence, and a term
                                     # that is not one.
                                     '{"b": 3, "coeff_max": 1, "shards": 2, "completed": [], '
                                     '"enumerated_count": 0, "partial": {"1": 5}}',
                                     '{"b": 3, "coeff_max": 1, "shards": 2, "completed": [], '
                                     '"enumerated_count": 0, "partial": {"1": [5]}}',
                                     '{"b": 3, "coeff_max": 1, "shards": 2, "completed": [], '
                                     '"enumerated_count": -100, "partial": {}}',
                                     '{"b": 3, "coeff_max": 1, "shards": 2, "completed": [1], '
                                     '"enumerated_count": 2, "partial": {}}',
                                     # A repeated index, and one past the shard count; each
                                     # with the count its indices would give.
                                     '{"b": 3, "coeff_max": 1, "shards": 2, "completed": [0, 0], '
                                     '"enumerated_count": 4, "partial": {}}',
                                     '{"b": 3, "coeff_max": 1, "shards": 2, "completed": [2], '
                                     '"enumerated_count": 1, "partial": {}}',
                                     # A non-decimal h, then witnesses ThreeForm refuses: a
                                     # triple out of range, a zero and a boolean coefficient.
                                     '{"b": 3, "coeff_max": 1, "shards": 2, "completed": [], '
                                     '"enumerated_count": 0, "partial": {"x4": [[1, 2, 3, 1]]}}',
                                     '{"b": 3, "coeff_max": 1, "shards": 2, "completed": [], '
                                     '"enumerated_count": 0, "partial": {"4": [[1, 2, 4, 1]]}}',
                                     '{"b": 3, "coeff_max": 1, "shards": 2, "completed": [], '
                                     '"enumerated_count": 0, "partial": {"4": [[1, 2, 3, 0]]}}',
                                     '{"b": 3, "coeff_max": 1, "shards": 2, "completed": [], '
                                     '"enumerated_count": 0, "partial": {"4": [[1, 2, 3, true]]}}',
                                     # A valid witness filed under another h (its h is 3).
                                     '{"b": 3, "coeff_max": 1, "shards": 2, "completed": [0], '
                                     '"enumerated_count": 2, "partial": {"4": [[1, 2, 3, 1]]}}'])
def test_malformed_checkpoint_exit2(tmp_path, capsys, sidecar):
    out = tmp_path / "b3.json"
    cp = tmp_path / "b3.json.checkpoint.json"
    cp.write_text(sidecar)
    code = main(["geography", "--b", "3", "--coeff-max", "1", "--out", str(out),
                 "--shards", "2", "--shard", "0"])
    assert code == 2
    assert str(cp) in capsys.readouterr().err
    assert cp.read_text() == sidecar and not out.exists()


@pytest.mark.parametrize("argv", [["compute", "--prime", "{p}"], ["verify", "--primes", "2,{p}"]])
@pytest.mark.parametrize("p", [0, 1, 4])
def test_non_prime_exit2(tmp_path, capsys, argv, p):
    for form in (trivial(0), torus3(4)):
        path = write_form(tmp_path / "f.json", form)
        assert main([argv[0], path, argv[1], argv[2].format(p=p)]) == 2
        assert "not prime" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["compute", "--prime", "{p}"], ["verify", "--primes", "2,{p}"]])
def test_prime_too_large_to_decide_exit2(tmp_path, capsys, argv):
    # 2^89 - 1 is prime, but above the range where is_prime is exact: refused
    # at once, where trial division would never have returned.
    path = write_form(tmp_path / "f.json", torus3(4))
    start = time.perf_counter()
    assert main([argv[0], path, argv[1], argv[2].format(p=2 ** 89 - 1)]) == 2
    assert time.perf_counter() - start < 1
    assert "too large" in capsys.readouterr().err
