"""Boundary maps of the contraction differential and mod-3 subcomplexes.

The differential drops exterior degree by 3, so the degree-graded complex
splits into three subcomplexes indexed by degree mod 3; homology in a fixed
grading of the two-periodic complex is the direct sum of their homologies.

Where the entries of d_k sit depends only on (b, k): the entry in row
``rest`` and column ``blade`` is ±mu(t) for the one triple t with
``blade = rest ∪ t``.  That pattern is compiled once per (b, k), lazily, into
an entry table grouped by triple, and every map is filled from it: a form
only supplies the values of its nonzero triples.  The rank-only path takes
sparse rows (:func:`boundary_rows`); Smith normal form and the text dumps
take dense matrices (:func:`boundary_matrix`).
"""

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .exact_linalg import IntegerMatrix, sparse_product
from .exterior import blade_basis
from .report import CheckReport


@dataclass(frozen=True)
class BoundaryMatrix:
    """Matrix of the differential from exterior degree k to k - 3.

    Rows and columns follow :func:`blade_basis` order; for k < 3 the matrix
    has zero rows.
    """

    source_degree: int
    target_degree: int
    matrix: IntegerMatrix


@dataclass(frozen=True)
class Mod3Complex:
    residue: int
    degrees: tuple
    boundaries: tuple  # boundaries[i] maps degrees[i + 1] -> degrees[i]


@lru_cache(maxsize=None)
def _triple_slots(b):
    """Index of each increasing triple in ``blade_basis(b, 3)``."""
    return {t: s for s, t in enumerate(blade_basis(b, 3))}


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
    runs = [([], []) for _ in slots]  # per slot: (+1 entries, -1 entries)
    for c, blade in enumerate(blade_basis(b, k)):
        for pos in combinations(range(k), 3):
            triple = (blade[pos[0]], blade[pos[1]], blade[pos[2]])
            rest = tuple(x for i, x in enumerate(blade) if i not in pos)
            # 1-based positions sum to pos sum + 3, flipping the parity.
            runs[slots[triple]][sum(pos) % 2 == 0].append((row_index[rest], c))
    # Two-byte indices while they fit: the tables are kept for the life of
    # the process, and at b = 11 they already hold 42k entries.
    code = "H" if max(len(row_index), len(blade_basis(b, k))) <= 1 << 16 else "L"
    rows, cols, starts = array(code), array(code), array("L", [0])
    for run in runs:
        for entries in run:
            for r, c in entries:
                rows.append(r)
                cols.append(c)
            starts.append(len(rows))
    return rows, cols, starts


def _check_degree(b, k):
    if k < 0 or k > b:
        raise ValueError(f"degree {k} out of range 0..{b}")


def _fill(target, f, k, p):
    """Write the entries of d_k into ``target[row][col]``, mod p when p > 0.

    Each (row, col) comes from exactly one triple, so nothing is summed.
    """
    if k < 3:
        return target
    rows, cols, starts = _entry_table(f.rank, k)
    slots = _triple_slots(f.rank)
    for i, j, m, a in f.terms:
        plus, minus = (a % p, -a % p) if p else (a, -a)
        if not plus:
            continue
        s = 2 * slots[i, j, m]
        lo, mid, hi = starts[s], starts[s + 1], starts[s + 2]
        for e in range(lo, mid):
            target[rows[e]][cols[e]] = plus
        for e in range(mid, hi):
            target[rows[e]][cols[e]] = minus
    return target


def boundary_rows(f, k, p=0):
    """Every row of d_k as a sparse ``{column: value}`` dict (empty rows kept).

    Over Z when p == 0; over F_p otherwise, with entries in 1..p-1.  Rows are
    indexed as in :func:`boundary_matrix`; the caller owns the dicts.
    """
    _check_degree(f.rank, k)
    return _fill([{} for _ in blade_basis(f.rank, k - 3)], f, k, p)


def boundary_matrix(f, k):
    """Differential out of exterior degree k, as a dense integer matrix."""
    b = f.rank
    _check_degree(b, k)
    n_rows, n_cols = len(blade_basis(b, k - 3)), len(blade_basis(b, k))
    data = _fill([[0] * n_cols for _ in range(n_rows)], f, k, 0)
    return BoundaryMatrix(k, k - 3, IntegerMatrix(n_rows, n_cols, data))


def empty_boundary_into(f, k):
    """Zero-column placeholder for the (nonexistent) map from degree k + 3."""
    n = len(blade_basis(f.rank, k))
    return BoundaryMatrix(k + 3, k, IntegerMatrix(n, 0, [[] for _ in range(n)]))


def build_mod3_complexes(f):
    """The three subcomplexes covering degrees 0..rank exactly once."""
    out = []
    for residue in range(3):
        degrees = tuple(range(residue, f.rank + 1, 3))
        boundaries = tuple(boundary_matrix(f, k) for k in degrees[1:])
        out.append(Mod3Complex(residue, degrees, boundaries))
    return tuple(out)


def composites(f):
    """Yield (k, nonzero (row, col) entries of d_{k-3} o d_k) for every adjacent pair.

    Pairs come subcomplex by subcomplex (degree mod 3), and at most two maps
    are held at a time.
    """
    for residue in range(3):
        prev = None
        for k in range(residue + 3, f.rank + 1, 3):
            cur = boundary_rows(f, k)
            if prev is not None:
                product = sparse_product(prev, cur)
                yield k, [(r, c) for r, row in enumerate(product) for c in row]
            prev = cur


def verify_d_squared(f):
    """Check that consecutive boundary maps compose to zero.

    A failure signals an implementation bug, never bad input: the composite
    is contraction by mu ^ mu, which vanishes identically.
    """
    rep = CheckReport(f"d-squared on rank {f.rank}")
    for k, bad in composites(f):
        bad = [(k, r, c) for r, c in bad]
        rep.add(f"d_{k - 3} o d_{k} = 0", not bad,
                "" if not bad else f"nonzero at {bad[:5]}")
    if not rep.items:
        rep.add("no composable pairs", True, "vacuous")
    return rep


def render_matrix_grid(M):
    """Plain-text dump: one row per line, space-separated integers."""
    return "\n".join(" ".join(str(v) for v in row) for row in M.data) + "\n"


def dump_boundary_matrices(f, directory):
    """Write every boundary matrix as a text grid for external cross-checks."""
    import os

    os.makedirs(directory, exist_ok=True)
    paths = []
    for k in range(3, f.rank + 1):
        path = os.path.join(directory, f"boundary_{k}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_matrix_grid(boundary_matrix(f, k).matrix))
        paths.append(path)
    return paths
