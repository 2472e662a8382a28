"""Boundary maps of the contraction differential, as sparse rows.

The differential drops exterior degree by 3, so the degree-graded complex
splits into three subcomplexes indexed by degree mod 3; homology in a fixed
grading of the two-periodic complex is the direct sum of their homologies.

Where the entries of d_k sit depends only on (b, k): the entry in row
``rest`` and column ``blade`` is ±mu(t) for the one triple t with
``blade = rest ∪ t``.  That pattern is compiled once per (b, k), lazily, into
an entry table grouped by triple, and every map is filled from it: a form
only supplies the values of its nonzero triples.  :func:`boundary_rows` is
the one builder; ranks, Smith normal form, the d∘d check and the text dumps
all take its ``{column: value}`` rows.

Blade complements (the Hodge star) pair d_k with d_{b+3-k}: the second is a
signed, permuted transpose of the first, so the two share their rank over
every field and their invariant factors.  :func:`dual_degree` certifies
this on the entry tables, once per pair, before homology copies a result
across a pair.  The middle map, 2k = b + 3, is its own dual and is
certified against itself.  At b = 1 mod 4 the certified rule makes it
skew-symmetric once each column is renamed to the row of its complement
and signed; :func:`skew_rows` gives it in that form, for the Q-rank.
"""

import os
from array import array
from functools import lru_cache
from itertools import chain, combinations, repeat
from math import comb
from operator import add, itemgetter, mul

from .exact_linalg import sparse_product
from .exterior import blade_basis
from .forms import _write_atomic
from .report import CheckReport


@lru_cache(maxsize=None)
def _triple_slots(b):
    """Index of each increasing triple in ``blade_basis(b, 3)``."""
    return {t: s for s, t in enumerate(blade_basis(b, 3))}


def _getter(positions):
    """The function taking a blade to the tuple of its entries at ``positions``.

    ``itemgetter`` alone returns a bare entry for one position and is not
    defined for none.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        i, = positions
        return lambda blade: (blade[i],)
    return lambda blade: ()


@lru_cache(maxsize=None)
def _entry_table(b, k):
    """Entries of d_k grouped by the triple that produces them.

    Returns ``(rows, cols, starts)``.  For the triple in slot s, entries
    ``starts[2s]:starts[2s+1]`` carry +mu(t) and ``starts[2s+1]:starts[2s+2]``
    carry -mu(t); entry e sits at row ``rows[e]``, column ``cols[e]``.  Signs
    follow :func:`cuphom.exterior.contract`: deleting the 1-based positions
    p1 < p2 < p3 of a blade gives (-1)^(p1+p2+p3).
    """
    row_index = {blade: i for i, blade in enumerate(blade_basis(b, k - 3))}
    slots = _triple_slots(b)
    # Two-byte indices: forms.MAX_RANK keeps every blade index below
    # C(16, 8) = 12870 < 2^16.  The tables are kept for the life of the
    # process, and at b = 11 they already hold 42k entries.
    halves = [(array("H"), array("H")) for _ in range(2 * len(slots))]
    # Per choice of triple positions: getters for the triple and the rest of
    # a blade, and whether the entry is -mu(t) (the 1-based positions sum
    # to pos sum + 3, flipping the parity).
    patterns = [(itemgetter(*pos), _getter(tuple(i for i in range(k) if i not in pos)),
                 sum(pos) % 2 == 0)
                for pos in combinations(range(k), 3)]
    for c, blade in enumerate(blade_basis(b, k)):
        for triple, rest, minus in patterns:
            half_rows, half_cols = halves[2 * slots[triple(blade)] + minus]
            half_rows.append(row_index[rest(blade)])
            half_cols.append(c)
    rows, cols, starts = array("H"), array("H"), array("L", [0])
    for half_rows, half_cols in halves:
        rows += half_rows
        cols += half_cols
        starts.append(len(rows))
    return rows, cols, starts


def _sorted_keys(table, base, row_step, col_step):
    """Sorted ``base(h) + row_step * row + col_step * col`` over the entries of a
    table, h the half-run holding the entry (2s: +mu(t), 2s + 1: -mu(t))."""
    rows, cols, starts = table
    bases = chain.from_iterable(repeat(base(h), starts[h + 1] - starts[h])
                                for h in range(len(starts) - 1))
    return sorted(map(add, bases, map(add, map(mul, rows, repeat(row_step)),
                                      map(mul, cols, repeat(col_step)))))


def _check_duality(b, k, table, dual):
    """Raise unless ``dual`` is the signed transpose of ``table`` under complements.

    ``table`` and ``dual`` are entry tables (see :func:`_entry_table`) of d_k
    and d_{b+3-k}.  Complementing reverses the lexicographic order of blades,
    so the entry of d_k at (row, col) for the triple t = (i, j, m) must sit in
    the run of t in d_{b+3-k} at the reversed indices (col^c, row^c), with
    sign (-1)^(i+j+m) times its own.  That is the sign (-1)^(k+1) sigma(row)
    sigma(col), sigma(B) the sign of the shuffle (B, B^c): the sums of ``col``
    and ``row`` differ by i + j + m, and the terms in k cancel.  Both tables
    become integer keys (half-run, row, column) in the coordinates of d_k;
    equal sorted keys are a bijection between the runs that keeps the rule.
    """
    n_cols = comb(b, k)
    span = comb(b, k - 3) * n_cols
    flips = [sum(t) % 2 for t in blade_basis(b, 3)]  # per slot: + and - trade places
    mine = _sorted_keys(table, lambda h: h * span, n_cols, 1)
    theirs = _sorted_keys(dual, lambda h: ((h ^ flips[h >> 1]) + 1) * span - 1, -1, -n_cols)
    if mine != theirs:
        raise RuntimeError(f"d_{b + 3 - k} is not the signed transpose of d_{k} at rank {b}")


@lru_cache(maxsize=None)
def dual_degree(b, k):
    """b + 3 - k, the degree of the map dual to d_k, once the pair is certified.

    The first call for a pair compiles both entry tables and checks them
    (:func:`_check_duality`); a mismatch raises, and nothing falls back.
    The self-dual middle map, 2k = b + 3, is checked against its own table:
    d_k[col^c, row^c] = (-1)^(k+1) sigma(row) sigma(col) d_k[row, col] for
    every entry, which :func:`_skew_table` relies on.
    """
    table = _entry_table(b, k)
    _check_duality(b, k, table, table if 2 * k == b + 3 else _entry_table(b, b + 3 - k))
    return b + 3 - k


def kept_degrees(b):
    """3 <= k <= (b+3)/2: the maps d_k whose duals (:func:`dual_degree`) are the rest."""
    return range(3, (b + 3) // 2 + 1)


@lru_cache(maxsize=None)
def _skew_table(b, k):
    """Entry table of the middle map d_k, 2k = b + 3 with b = 1 mod 4, made skew.

    Once :func:`dual_degree` has certified the table, column B is renamed to
    the row index of its complement B^c (complementing reverses the order of
    blades) and each entry is multiplied by sigma(B^c), the sign of the
    shuffle (B^c, B), by moving it to the other half-run of its triple.  The
    certified rule, with (-1)^(k+1) = -1 and sigma(B) = sigma(B^c) at these
    b, then makes the rows a skew-symmetric square matrix.
    """
    dual_degree(b, k)
    rows, cols, starts = _entry_table(b, k)
    last = comb(b, k) - 1
    odd = [sum(x - i for i, x in enumerate(blade, 1)) % 2 for blade in blade_basis(b, k - 3)]
    skew = array("H"), array("H"), array("L", [0])
    for s in range(0, len(starts) - 1, 2):
        halves = [], []
        for e in range(starts[s], starts[s + 2]):
            c = last - cols[e]
            halves[(e >= starts[s + 1]) ^ odd[c]].append((rows[e], c))
        for half in halves:
            for r, c in half:
                skew[0].append(r)
                skew[1].append(c)
            skew[2].append(len(skew[0]))
    return skew


def _check_degree(b, k):
    if k < 0 or k > b:
        raise ValueError(f"degree {k} out of range 0..{b}")


def boundary_rows(f, k, p=0):
    """Every row of d_k as a sparse ``{column: value}`` dict (empty rows kept).

    Over Z when p == 0; over F_p otherwise, with entries in 1..p-1.  Rows
    and columns follow :func:`blade_basis` order (degrees k - 3 and k); for
    k < 3 there are no rows.  The caller owns the dicts.  Each (row, col)
    comes from exactly one triple, so nothing is summed.  When no term
    survives (mod p), the map is zero and the entry table is not built.
    """
    return _filled(f, k, p, _entry_table)


def skew_rows(f):
    """The middle map d_k, 2k = b + 3, of a form of rank b = 1 mod 4, made skew.

    Rows as :func:`boundary_rows` gives them; column B is renamed to the row
    index of its complement and signed by sigma(B^c) (:func:`_skew_table`),
    so the rows form a skew-symmetric square matrix with the rank of d_k.
    """
    return _filled(f, (f.rank + 3) // 2, 0, _skew_table)


def _filled(f, k, p, table):
    """Rows of d_k filled from ``table(b, k)``, which is built only for a nonzero map."""
    b = f.rank
    _check_degree(b, k)
    target = [{} for _ in blade_basis(b, k - 3)]
    terms = [t for t in f.terms if t[3] % p] if p else f.terms
    if k < 3 or not terms:
        return target
    rows, cols, starts = table(b, k)
    slots = _triple_slots(b)
    for i, j, m, a in terms:
        plus, minus = (a % p, -a % p) if p else (a, -a)
        s = 2 * slots[i, j, m]
        lo, mid, hi = starts[s], starts[s + 1], starts[s + 2]
        for e in range(lo, mid):
            target[rows[e]][cols[e]] = plus
        for e in range(mid, hi):
            target[rows[e]][cols[e]] = minus
    return target


def checked_maps(f, top=None):
    """The d∘d check of each composable pair up to d_top, and the maps it builds.

    Returns ``(report, maps)``: ``maps`` yields (k, rows of d_k) for
    3 <= k <= top (capped at the rank, its default), subcomplex by
    subcomplex (degree mod 3), each map built once and at most two held at
    a time.  Before it yields d_k it multiplies d_{k-3} o d_k, the pair's
    one product, and adds its check to ``report``, which is complete once
    ``maps`` is used up.  Callers must not modify the rows.  A failure
    signals an implementation bug, never bad input: the composite is
    contraction by mu ^ mu, which vanishes identically.
    """
    top = f.rank if top is None else min(top, f.rank)
    rep = CheckReport(f"d-squared on rank {f.rank}")

    def maps():
        for residue in range(3):
            prev = None
            for k in range(residue + 3, top + 1, 3):
                cur = boundary_rows(f, k)
                if prev is not None:
                    bad = [(k, r, c) for r, row in enumerate(sparse_product(prev, cur))
                           for c in row]
                    rep.add(f"d_{k - 3} o d_{k} = 0", not bad,
                            "" if not bad else f"nonzero at {bad[:5]}")
                yield k, cur
                prev = cur
        if not rep.items:
            rep.add("no composable pairs", True, "vacuous")
    return rep, maps()


def verify_d_squared(f):
    """Check that consecutive boundary maps compose to zero (:func:`checked_maps`)."""
    rep, maps = checked_maps(f)
    for _ in maps:
        pass
    return rep


def render_matrix_grid(rows, n_cols):
    """Plain-text dump of sparse rows: one row per line, space-separated integers."""
    return "\n".join(" ".join(str(row.get(c, 0)) for c in range(n_cols))
                     for row in rows) + "\n"


def dump_boundary_matrices(f, directory):
    """Write each d_k as a text grid to ``directory/boundary_<k>.txt``, for external
    cross-checks, one whole file at a time (:func:`cuphom.forms._write_atomic`)."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for k in range(3, f.rank + 1):
        paths.append(os.path.join(directory, f"boundary_{k}.txt"))
        _write_atomic(paths[-1], render_matrix_grid(boundary_rows(f, k), comb(f.rank, k)))
    return paths
