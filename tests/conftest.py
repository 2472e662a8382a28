import random
from pathlib import Path

import pytest

from cuphom.exterior import blade_basis
from cuphom.forms import ThreeForm


def random_form(rng, b, coeff_max=9):
    """Random form at rank b: a mix of zero, sparse and dense coefficient fills."""
    mode = rng.random()
    coeffs = {}
    if mode >= 0.1:
        keep = 0.3 if mode < 0.5 else 1.0
        for t in blade_basis(b, 3):
            if rng.random() <= keep:
                a = rng.randint(-coeff_max, coeff_max)
                if a:
                    coeffs[t] = a
    return ThreeForm.from_coeffs(b, coeffs)


def seeded(seed):
    return random.Random(seed)


def run_all_shards(b, coeff_max, shards, out):
    """Every shard of a checkpointed scan, in an order scrambled by the shard
    count; only the last call finishes.  Returns the result file's bytes."""
    from cuphom.geography import run_shard_to_checkpoint

    order = list(range(shards))
    seeded(shards).shuffle(order)
    done = [run_shard_to_checkpoint(b, coeff_max, shards, i, out) for i in order]
    assert done == [False] * (shards - 1) + [True]
    return Path(out).read_bytes()


def signed_permutation(perm, sign=1):
    """Matrix for forms.transform sending index i to sign times index perm[i - 1]."""
    return [[sign * (p == c) for c in range(1, len(perm) + 1)] for p in perm]


@pytest.fixture
def broken_d6(monkeypatch):
    """Double row 0 of every d_6 that cup_complex builds, so that d_3 o d_6 != 0."""
    import cuphom.cup_complex as cc

    real = cc.boundary_rows

    def doubled_first_row(f, k, p=0):
        rows = real(f, k, p)
        if k == 6:
            rows[0] = {c: 2 * v for c, v in rows[0].items()}
        return rows

    monkeypatch.setattr(cc, "boundary_rows", doubled_first_row)


FINISHES = ("any_pivot", "_pfaffian_rank")


@pytest.fixture
def finishes(monkeypatch):
    """Counts of the exact finishes of open Q-ranks that run in the test: the
    any-pivot mode of exact_linalg._eliminate and the Pfaffian finish."""
    import cuphom.exact_linalg as el

    seen = dict.fromkeys(FINISHES, 0)
    eliminate, pfaffian = el._eliminate, el._pfaffian_rank

    def counted_eliminate(rows, paired=False, any_pivot=False, stop=False):
        seen["any_pivot"] += any_pivot
        return eliminate(rows, paired, any_pivot, stop)

    def counted_pfaffian(rows):
        seen["_pfaffian_rank"] += 1
        return pfaffian(rows)

    monkeypatch.setattr(el, "_eliminate", counted_eliminate)
    monkeypatch.setattr(el, "_pfaffian_rank", counted_pfaffian)
    return seen
