import pytest

from conftest import seeded

from cuphom.cup_complex import boundary_matrix
from cuphom.exact_linalg import (IntegerMatrix, is_prime, rank_over_field,
                                 smith_normal_form)
from cuphom.forms import torus3


def M(rows):
    return IntegerMatrix.from_rows(rows)


def test_snf_basic():
    assert smith_normal_form(M([[2, 4], [6, 8]])).invariant_factors == (2, 4)
    r = smith_normal_form(IntegerMatrix.zero(3, 5))
    assert r.rank == 0 and r.invariant_factors == ()
    assert smith_normal_form(M([[7]])).invariant_factors == (7,)
    assert smith_normal_form(M([[-7]])).invariant_factors == (7,)


def test_snf_divisibility_normalization():
    # diag(2, 3) is not in normal form; the group is Z/6.
    assert smith_normal_form(M([[2, 0], [0, 3]])).invariant_factors == (1, 6)
    assert smith_normal_form(M([[4, 0], [0, 6]])).invariant_factors == (2, 12)


def test_snf_empty_shapes():
    assert smith_normal_form(IntegerMatrix(0, 4, [])).rank == 0
    assert smith_normal_form(IntegerMatrix(4, 0, [[], [], [], []])).rank == 0


def test_rank_over_field_basic():
    assert rank_over_field(M([[2]]), 2) == 0
    assert rank_over_field(M([[2]]), 0) == 1
    assert rank_over_field(M([[1, 1], [1, 1]]), 0) == 1
    assert rank_over_field(M([[1, 1], [1, 1]]), 5) == 1
    assert rank_over_field(boundary_matrix(torus3(6), 3).matrix, 3) == 0
    assert rank_over_field(boundary_matrix(torus3(6), 3).matrix, 5) == 1
    # Sparse {column: value} rows, as the compiled boundary maps give them.
    assert rank_over_field([{0: 1, 1: 1}, {}, {0: 1, 1: 1}], 0) == 1
    assert rank_over_field([{0: 2, 1: 4}, {1: 3}], 0) == 2
    assert rank_over_field([{0: 1, 1: 2}, {0: 2, 1: 1}], 3) == 1


def test_rank_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        rank_over_field(M([[1]]), 4)
    with pytest.raises(ValueError):
        rank_over_field(M([[1]]), 1)


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 97, 101]
    composites = [-3, 0, 1, 4, 6, 9, 91, 100]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def _random_matrix(rng, rows, cols, bound=50):
    return M([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def test_field_rank_consistent_with_snf():
    # rank over Q equals the SNF rank; rank over F_p counts the invariant
    # factors that p does not divide.
    rng = seeded(101)
    sizes = [(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(18)]
    sizes.append((40, 40))
    for rows, cols in sizes:
        # Mix dense matrices with low-rank products that force torsion.
        if rng.random() < 0.5:
            m = _random_matrix(rng, rows, cols)
        else:
            inner = rng.randint(1, min(rows, cols))
            a = _random_matrix(rng, rows, inner, 6)
            b = _random_matrix(rng, inner, cols, 6)
            m = a.mul(b)
        snf = smith_normal_form(m)
        assert rank_over_field(m, 0) == snf.rank
        for p in (2, 3, 5, 7, 97):
            expected = sum(1 for d in snf.invariant_factors if d % p)
            assert rank_over_field(m, p) == expected


def test_snf_invariant_under_unimodular_ops():
    rng = seeded(202)
    for _ in range(25):
        rows, cols = rng.randint(2, 8), rng.randint(2, 8)
        m = _random_matrix(rng, rows, cols, 9)
        data = [row[:] for row in m.data]
        for _ in range(30):
            op = rng.randrange(4)
            if op == 0:
                i, j = rng.sample(range(rows), 2)
                q = rng.randint(-3, 3)
                data[i] = [a + q * b for a, b in zip(data[i], data[j])]
            elif op == 1:
                i, j = rng.sample(range(cols), 2)
                q = rng.randint(-3, 3)
                for row in data:
                    row[i] += q * row[j]
            elif op == 2:
                i, j = rng.sample(range(rows), 2)
                data[i], data[j] = data[j], data[i]
            else:
                i = rng.randrange(rows)
                data[i] = [-a for a in data[i]]
        assert (smith_normal_form(M(data)).invariant_factors
                == smith_normal_form(m).invariant_factors)


def test_matrix_shape_guards():
    with pytest.raises(ValueError):
        IntegerMatrix(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        M([[1, 2]]).mul(M([[1, 2]]))
    assert M([[1, 2], [3, 4]]).mul(M([[1], [1]])).data == [[3], [7]]
    assert IntegerMatrix.zero(2, 3).is_zero()
