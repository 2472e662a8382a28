"""Alternating 3-form inputs: documents, built-in families, connected sums.

A form is the pair (rank b, coefficients a_ijk on strictly increasing
triples); by Sullivan's realization theorem every such pair is the triple
cup product form of some closed 3-manifold, so nothing here ever needs a
triangulation.
"""

import json
import os
from dataclasses import dataclass
from functools import cached_property

from .exact_linalg import is_prime

# Largest rank a form may have: a feasibility limit, checked before any
# matrix is built.  At b = 16 the largest boundary map has
# max_k C(b, k) * C(k, 3) = C(16, 9) * C(9, 3) = 960,960 entries, and every
# blade index is below C(16, 8) = 12870 < 2^16, which the compiled entry
# tables of cup_complex rely on.  The chain groups have 2^rank generators in
# all, so full homology is routine only well below this cap.
MAX_RANK = 16


class FormError(ValueError):
    """Malformed form document or invalid family/operation parameters."""


@dataclass(frozen=True)
class ThreeForm:
    """Sparse alternating 3-form on a rank-b free abelian group.

    ``terms`` is a lex-sorted tuple of (i, j, k, a) with 1 <= i < j < k <= b
    and a != 0; terms given in another order, as lists or by an iterator
    are stored so.
    """

    rank: int
    terms: tuple

    def __post_init__(self):
        if not isinstance(self.rank, int) or isinstance(self.rank, bool) or self.rank < 0:
            raise FormError(f"rank must be a nonnegative integer, got {self.rank!r}")
        if self.rank > MAX_RANK:
            raise FormError(f"rank {self.rank} exceeds the supported maximum {MAX_RANK}")
        try:
            given = iter(self.terms)
        except TypeError:
            raise FormError(f"terms {self.terms!r} are not a sequence of quadruples") from None
        seen, terms = set(), []
        for term in given:
            if (not isinstance(term, (tuple, list)) or len(term) != 4
                    or not all(isinstance(x, int) and not isinstance(x, bool) for x in term)):
                raise FormError(f"term {term!r} is not an integer quadruple [i, j, k, a]")
            i, j, k, a = term
            if not i < j < k:
                raise FormError(f"triple ({i}, {j}, {k}) is not strictly increasing")
            if i < 1 or k > self.rank:
                raise FormError(f"triple ({i}, {j}, {k}) out of range 1..{self.rank}")
            if a == 0:
                raise FormError(f"stored coefficient for ({i}, {j}, {k}) is zero")
            if (i, j, k) in seen:
                raise FormError(f"duplicate triple ({i}, {j}, {k})")
            seen.add((i, j, k))
            terms.append((i, j, k, a))
        object.__setattr__(self, "terms", tuple(sorted(terms)))

    @classmethod
    def from_coeffs(cls, rank, coeffs):
        """Build a form from a {(i, j, k): a} mapping, dropping zeros."""
        terms = tuple(sorted((i, j, k, a) for (i, j, k), a in coeffs.items() if a))
        return cls(rank, terms)

    @cached_property
    def coeffs(self):
        return {(i, j, k): a for i, j, k, a in self.terms}

    @property
    def is_zero(self):
        return not self.terms


def _trusted_form(rank, terms):
    """A form from terms already valid and lex-sorted, built without re-checking them.

    For generators such as the geography scans, whose terms are valid and
    sorted by construction; the result equals ``ThreeForm(rank, terms)``.
    """
    form = object.__new__(ThreeForm)
    object.__setattr__(form, "rank", rank)
    object.__setattr__(form, "terms", terms)
    return form


def parse_form(text):
    """Parse a canonical form document (see :func:`serialize_form`)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormError(f"form document is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise FormError("form document must be a JSON object")
    extra = set(doc) - {"rank", "terms"}
    if extra:
        raise FormError(f"unexpected keys in form document: {sorted(extra)}")
    if "rank" not in doc or "terms" not in doc:
        raise FormError('form document needs both "rank" and "terms"')
    rank = doc["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise FormError(f'"rank" must be an integer, got {rank!r}')
    if not isinstance(doc["terms"], list):
        raise FormError('"terms" must be an array of [i, j, k, a] quadruples')
    seen = set()
    terms = []
    for entry in doc["terms"]:
        if (not isinstance(entry, list) or len(entry) != 4
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)):
            raise FormError(f"term {entry!r} is not an integer quadruple [i, j, k, a]")
        i, j, k, a = entry
        if (i, j, k) in seen:
            raise FormError(f"duplicate triple ({i}, {j}, {k})")
        seen.add((i, j, k))
        if a != 0:
            terms.append((i, j, k, a))
    return ThreeForm(rank, tuple(sorted(terms)))


def serialize_form(f):
    """Canonical UTF-8 document: lex-sorted terms, 2-space indent, final newline.

    ``parse_form(serialize_form(f))`` reproduces ``f`` bit-exactly.
    """
    doc = {"rank": f.rank, "terms": [list(t) for t in f.terms]}
    return json.dumps(doc, indent=2) + "\n"


def _write_atomic(path, text):
    """Write ``text`` to ``path`` as UTF-8, whole or not at all: every file cuphom writes.

    The text goes to a temporary file next to ``path``, named for this process, which
    ``os.replace`` then moves over ``path``.  If either step raises, ``path`` keeps its
    old bytes and the temporary file is removed; no two processes share one.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def trivial(b):
    """The zero form on rank b (connected sums of S^1 x S^2)."""
    if b < 0:
        raise FormError("rank must be nonnegative")
    return ThreeForm(b, ())


def torus3(n):
    """Rank 3 with a single triple product of value n; n = 0 gives the zero form."""
    return ThreeForm(3, ((1, 2, 3, n),) if n else ())


def surface_circle(g):
    """Product of a genus-g surface with a circle: mu = s ^ omega.

    Index 1 is the circle class; indices (2i, 2i+1) are the i-th symplectic
    pair of the surface.
    """
    if g < 1:
        raise FormError("genus must be at least 1")
    return ThreeForm(2 * g + 1, tuple((1, 2 * i, 2 * i + 1, 1) for i in range(1, g + 1)))


def mapping_torus(w, v0):
    """Surface mapping torus with invariant symplectic rank 2w and null rank v0."""
    if w < 0 or v0 < 0:
        raise FormError("mapping torus parameters must be nonnegative")
    return ThreeForm(1 + 2 * w + v0, tuple((1, 2 * i, 2 * i + 1, 1) for i in range(1, w + 1)))


FAMILIES = {
    "trivial": (trivial, ("b",)),
    "torus3": (torus3, ("n",)),
    "surface_circle": (surface_circle, ("g",)),
    "mapping_torus": (mapping_torus, ("w", "v0")),
}


def builtin_family(name, **params):
    """Instantiate one of the built-in example families by name."""
    if name not in FAMILIES:
        raise FormError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    fn, wanted = FAMILIES[name]
    missing = [p for p in wanted if p not in params]
    extra = [p for p in params if p not in wanted]
    if missing or extra:
        raise FormError(f"family {name!r} takes parameters {list(wanted)}")
    return fn(*(params[p] for p in wanted))


def connected_sum(f1, f2):
    """Block sum: triples of f1 verbatim, triples of f2 shifted past rank(f1)."""
    b1 = f1.rank
    if b1 + f2.rank > MAX_RANK:
        raise FormError(f"combined rank {b1 + f2.rank} exceeds {MAX_RANK}")
    shifted = tuple((i + b1, j + b1, k + b1, a) for i, j, k, a in f2.terms)
    return ThreeForm(b1 + f2.rank, f1.terms + shifted)


def _support_pieces(form):
    """Partition 1..rank into triple-connected components plus isolated indices.

    These are the blocks of the finest connected-sum splitting that the
    support shows: up to relabeling, the form is the block sum
    (:func:`connected_sum`) of its restrictions to them.
    """
    parent = list(range(form.rank + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, k, _ in form.terms:
        for other in (j, k):
            ri, ro = find(i), find(other)
            if ri != ro:
                parent[ro] = ri
    pieces = {}
    for idx in range(1, form.rank + 1):
        pieces.setdefault(find(idx), []).append(idx)
    return sorted(pieces.values())


def require_prime(p):
    """Refuse with FormError a p that is not prime or too large to decide."""
    try:
        prime = is_prime(p)
    except ValueError as e:
        raise FormError(str(e)) from None
    if not prime:
        raise FormError(f"{p} is not prime")


def reduce_mod_p(f, p):
    """Coefficients reduced into [0, p); triples that vanish mod p are dropped."""
    require_prime(p)
    return ThreeForm.from_coeffs(f.rank, {t: a % p for (t, a) in f.coeffs.items()})


def transform(f, M):
    """Pull f back through the integer matrix M, which has one row per index of f.

    With n the common length of the rows, the result has rank n and
    (M.f)_abc = sum over i < j < k of f_ijk * det M[{i, j, k}, {a, b, c}].
    A matrix in GL(b, Z) gives an isomorphic cohomology ring, so the same
    cup homology.  -I negates f, a permutation matrix relabels its indices,
    and the 0/1 inclusion of a block of indices restricts f to that block.
    """
    if len(M) != f.rank or len({len(row) for row in M}) > 1:
        raise FormError(f"M must have {f.rank} rows of one common length")
    n = len(M[0]) if M else 0
    coeffs = {}
    for i, j, k, a in f.terms:
        r, s, t = M[i - 1], M[j - 1], M[k - 1]
        for x, y, z in ((x, y, z) for z in range(n) for y in range(z) for x in range(y)):
            det = (r[x] * (s[y] * t[z] - s[z] * t[y]) - r[y] * (s[x] * t[z] - s[z] * t[x])
                   + r[z] * (s[x] * t[y] - s[y] * t[x]))
            if det:
                key = (x + 1, y + 1, z + 1)
                coeffs[key] = coeffs.get(key, 0) + a * det
    return ThreeForm.from_coeffs(n, coeffs)
