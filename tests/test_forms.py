import os
from itertools import product

import pytest

from conftest import random_form, seeded, signed_permutation

from cuphom.exterior import blade_basis
from cuphom.forms import (FormError, ThreeForm, _trusted_form, _write_atomic, builtin_family,
                          connected_sum, mapping_torus, parse_form, reduce_mod_p, serialize_form,
                          surface_circle, torus3, transform, trivial)
from cuphom.geography import witness_key


def test_parse_basic():
    f = parse_form('{"rank": 3, "terms": [[1, 2, 3, 5]]}')
    assert f == torus3(5)
    assert parse_form('{"rank": 4, "terms": []}') == trivial(4)


def test_parse_drops_zero_coefficients():
    f = parse_form('{"rank": 4, "terms": [[1, 2, 3, 0], [1, 2, 4, 2]]}')
    assert f.terms == ((1, 2, 4, 2),)


@pytest.mark.parametrize("text,fragment", [
    ('{"rank": 3, "terms": [[2, 1, 3, 1]]}', "not strictly increasing"),
    ('{"rank": 3, "terms": [[1, 2, 4, 1]]}', "out of range"),
    ('{"rank": 3, "terms": [[0, 2, 3, 1]]}', "out of range"),
    ('{"rank": 3, "terms": [[1, 2, 3, 1], [1, 2, 3, 2]]}', "duplicate"),
    ('{"rank": 3, "terms": [[1, 2, 3, 1], [1, 2, 3, 0]]}', "duplicate"),
    ('{"rank": 64, "terms": []}', "exceeds"),
    ('{"rank": 17, "terms": [[1, 2, 3, 1]]}', "exceeds"),
    ('{"rank": -1, "terms": []}', "nonnegative"),
    ('{"rank": 3}', 'needs both'),
    ('{"rank": 3, "terms": [[1, 2, 3]]}', "quadruple"),
    ('{"rank": 3, "terms": [[1, 2, 3, 1.5]]}', "quadruple"),
    ('{"rank": "3", "terms": []}', "integer"),
    ('{"rank": 3, "terms": [], "extra": 1}', "unexpected"),
    ('[1, 2]', "JSON object"),
    ('not json', "not valid JSON"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(FormError, match=fragment):
        parse_form(text)


def test_serialize_round_trip():
    rng = seeded(5)
    cases = [trivial(b) for b in (0, 2, 16)] + [torus3(n) for n in (-3, 0, 5)]
    cases += [surface_circle(g) for g in range(1, 8)]
    cases += [mapping_torus(w, v0) for w in range(3) for v0 in range(3)]
    cases += [random_form(rng, rng.randint(0, 8)) for _ in range(200)]
    for f in cases:
        text = serialize_form(f)
        assert text.endswith("\n")
        assert parse_form(text) == f
        assert serialize_form(parse_form(text)) == text


def test_serialize_zero_form():
    assert serialize_form(trivial(2)) == '{\n  "rank": 2,\n  "terms": []\n}\n'


def test_serialize_surface_circle_genus_one():
    assert parse_form(serialize_form(surface_circle(1))) == ThreeForm(3, ((1, 2, 3, 1),))


def test_families():
    assert trivial(4).is_zero and trivial(4).rank == 4
    assert torus3(5).terms == ((1, 2, 3, 5),)
    assert torus3(0) == trivial(3)
    assert torus3(-2).terms == ((1, 2, 3, -2),)
    assert surface_circle(2).terms == ((1, 2, 3, 1), (1, 4, 5, 1))
    assert surface_circle(2).rank == 5
    assert mapping_torus(0, 3) == trivial(4)
    assert mapping_torus(2, 0) == surface_circle(2)
    assert torus3(1) == surface_circle(1)


def test_family_parameter_errors():
    with pytest.raises(FormError):
        surface_circle(0)
    with pytest.raises(FormError):
        mapping_torus(-1, 0)
    with pytest.raises(FormError):
        trivial(-3)
    with pytest.raises(FormError):
        builtin_family("nope", b=1)
    with pytest.raises(FormError):
        builtin_family("torus3", g=1)


def test_builtin_family_dispatch():
    assert builtin_family("torus3", n=5) == torus3(5)
    assert builtin_family("mapping_torus", w=1, v0=2) == mapping_torus(1, 2)


def test_connected_sum():
    assert connected_sum(torus3(1), trivial(1)).terms == ((1, 2, 3, 1),)
    assert connected_sum(torus3(1), trivial(1)).rank == 4
    assert connected_sum(trivial(2), trivial(3)) == trivial(5)
    assert connected_sum(torus3(1), torus3(1)).terms == ((1, 2, 3, 1), (4, 5, 6, 1))


def test_connected_sum_identity_and_associativity():
    rng = seeded(9)
    for _ in range(25):
        f1 = random_form(rng, rng.randint(0, 4))
        f2 = random_form(rng, rng.randint(0, 4))
        f3 = random_form(rng, rng.randint(0, 4))
        assert connected_sum(f1, trivial(0)) == f1
        assert connected_sum(trivial(0), f1) == f1
        left = connected_sum(connected_sum(f1, f2), f3)
        right = connected_sum(f1, connected_sum(f2, f3))
        assert serialize_form(left) == serialize_form(right)
        assert left.rank == f1.rank + f2.rank + f3.rank


def test_connected_sum_rank_cap():
    assert connected_sum(trivial(8), trivial(8)) == trivial(16)
    with pytest.raises(FormError, match="exceeds"):
        connected_sum(trivial(9), trivial(9))


def test_reduce_mod_p():
    assert reduce_mod_p(torus3(5), 5) == trivial(3)
    assert reduce_mod_p(torus3(5), 2).terms == ((1, 2, 3, 1),)
    assert reduce_mod_p(trivial(6), 7) == trivial(6)
    assert reduce_mod_p(torus3(-1), 3).terms == ((1, 2, 3, 2),)
    with pytest.raises(FormError, match="not prime"):
        reduce_mod_p(torus3(5), 6)


def test_reduce_mod_p_range():
    rng = seeded(13)
    for _ in range(20):
        f = random_form(rng, 6)
        for p in (2, 3, 5):
            g = reduce_mod_p(f, p)
            assert all(0 < a < p for _, _, _, a in g.terms)
            assert g.rank == f.rank


def test_transform():
    f = surface_circle(2)
    ident = signed_permutation([1, 2, 3, 4, 5])
    assert transform(f, ident) == f
    assert transform(f, signed_permutation([1, 2, 3, 4, 5], -1)).terms == (
        (1, 2, 3, -1), (1, 4, 5, -1))
    # Swapping 2 and 3 reverses one triple, flipping its sign.
    swap = signed_permutation([1, 3, 2, 4, 5])
    assert transform(f, swap).terms == ((1, 2, 3, -1), (1, 4, 5, 1))
    # The inclusion of the block {1, 4, 5} keeps the one triple inside it.
    inclusion = [[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert transform(f, inclusion) == ThreeForm(3, ((1, 2, 3, 1),))
    with pytest.raises(FormError):
        transform(f, ident[:4])
    with pytest.raises(FormError):
        transform(f, ident[:4] + [[0, 0, 0, 1]])


def test_direct_construction_validates():
    with pytest.raises(FormError):
        ThreeForm(3, ((1, 2, 3, 0),))
    with pytest.raises(FormError):
        ThreeForm(2, ((1, 2, 3, 1),))
    with pytest.raises(FormError):
        ThreeForm(3, ((1, 2, 3, 1), (1, 2, 3, 4)))


def test_direct_construction_rejects_terms_that_are_not_sequences():
    # Terms that cannot be iterated, and a term with no length, are
    # malformed forms like any other: FormError, not a bare TypeError.
    with pytest.raises(FormError, match="not a sequence"):
        ThreeForm(3, 5)
    with pytest.raises(FormError, match="quadruple"):
        ThreeForm(3, [5])
    with pytest.raises(FormError, match="quadruple"):
        ThreeForm(4, ((1, 2, 3, 1), None))


def test_direct_construction_rejects_booleans():
    # bool is an int subclass, but JSON writes it as true/false, which
    # parse_form refuses: such a form could not round-trip.
    with pytest.raises(FormError, match="rank"):
        ThreeForm(True, ())
    with pytest.raises(FormError, match="quadruple"):
        ThreeForm(3, ((1, 2, 3, True),))
    with pytest.raises(FormError, match="quadruple"):
        ThreeForm(4, ((1, 2, 4, 1), (1, True, 3, 2)))


def test_list_terms_are_stored_as_sorted_tuples():
    # A list of terms, terms as lists, or an iterator of terms must give the
    # form the tuples give.
    want = ThreeForm(4, ((1, 2, 3, 1), (2, 3, 4, -2)))
    for terms in ([(2, 3, 4, -2), (1, 2, 3, 1)], ([1, 2, 3, 1], [2, 3, 4, -2]),
                  iter(want.terms)):
        f = ThreeForm(4, terms)
        assert f == want and f.terms == want.terms
        assert hash(f) == hash(want)
        assert witness_key(f) == witness_key(want)
        assert parse_form(serialize_form(f)) == f


@pytest.mark.parametrize("b", [3, 4])
def test_trusted_form_equals_validated(b):
    # Every form of the coefficient-1 box, with terms built as the scans build them.
    triples = blade_basis(b, 3)
    for coeffs in product((-1, 0, 1), repeat=len(triples)):
        terms = tuple((i, j, k, a) for (i, j, k), a in zip(triples, coeffs) if a)
        trusted, checked = _trusted_form(b, terms), ThreeForm(b, terms)
        assert trusted == checked and hash(trusted) == hash(checked)
        assert trusted.coeffs == checked.coeffs and trusted.terms == checked.terms


def test_atomic_write_uses_a_temporary_file_of_its_own_process(tmp_path, monkeypatch):
    # Each writer moves a file named for its process over the target, leaves
    # another process's half-written file alone, and leaves no file of its own.
    target = tmp_path / "f.json"
    other = tmp_path / f"f.json.{os.getpid() + 1}.tmp"
    other.write_text("half")
    moved, real_replace = [], os.replace

    def recording_replace(src, dst):
        moved.append(src)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    _write_atomic(target, "one\n")
    with monkeypatch.context() as m:
        m.setattr(os, "getpid", lambda: 4242)
        _write_atomic(target, "two\n")
    assert moved == [f"{target}.{os.getpid()}.tmp", f"{target}.4242.tmp"]
    assert target.read_text() == "two\n" and other.read_text() == "half"
    assert sorted(tmp_path.iterdir()) == [target, other]


@pytest.mark.parametrize("fail", ["replace", "write"])
def test_interrupted_atomic_write_keeps_the_target(tmp_path, monkeypatch, fail):
    # The move fails, or the write does (a lone surrogate cannot be encoded):
    # the old bytes stay, the error reaches the caller, no file is left.
    target = tmp_path / "f.json"
    target.write_bytes(b"old\n")
    text = "new\n" * 1000
    if fail == "replace":
        def failing_replace(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", failing_replace)
    else:
        text += "\ud800"
    with pytest.raises((OSError, UnicodeEncodeError)):
        _write_atomic(target, text)
    assert target.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [target]
