"""Homology groups of the cup complex and the derived numerical invariants.

The two-periodic homology is reported through its even and odd parts; the
common rank h is an integer for rank >= 1 and 1/2 by convention for rank 0
(rational homology spheres).  Every boundary map arrives as the sparse rows
of :func:`cuphom.cup_complex.boundary_rows`.  Only the kept half of the maps,
d_k with k <= (b+3)/2, is eliminated: the integral groups take one Smith
normal form per kept map, the field invariants one rank, and each dual map
d_{b+3-k}, a certified signed transpose of d_k, takes its partner's result
(:func:`_with_duals`).  Over Q those ranks start as lower bounds modulo 2,
taken where the unit phase stops on a dense block, and the chain complex
itself certifies most of them (:func:`_q_ranks`); only the maps it leaves
open take a rank modulo a fixed prime, and only those still open finish
their unit phase; at b = 1 mod 4 the self-dual middle map is ranked
exactly, unbounded, in its skew form (:func:`cuphom.cup_complex.skew_rows`).
Every ring's per-degree dimensions come from its ranks by :func:`_dims`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cup_complex import boundary_rows, checked_maps, dual_degree, kept_degrees, skew_rows
from .exact_linalg import (q_rank_bound, rank_over_field, skew_q_rank, smith_normal_form,
                           _divisibility_chain)
from .forms import FormError, require_prime
from .report import CheckReport


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus a divisibility chain.

    Torsion entries are >= 2 and each divides the next, so the rendering is
    injective on isomorphism classes.
    """

    free_rank: int
    torsion: tuple = ()

    @classmethod
    def from_parts(cls, free_rank, moduli):
        """Normalize arbitrary moduli: drop units, force d_1 | d_2 | ... order."""
        chain = _divisibility_chain(m for m in moduli if m)
        return cls(free_rank, chain[chain.count(1):])

    def render(self):
        if self.free_rank == 0 and not self.torsion:
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts)


def direct_sum(groups):
    free = sum(g.free_rank for g in groups)
    moduli = [d for g in groups for d in g.torsion]
    return AbelianGroup.from_parts(free, moduli)


@dataclass(frozen=True)
class CupHomologyResult:
    rank: int
    by_degree: tuple  # AbelianGroup per exterior degree 0..rank
    even: AbelianGroup
    odd: AbelianGroup
    h_ev: int
    h_odd: int
    h: Fraction


def cup_homology(f):
    """Full integral homology, split by exterior degree and by parity.

    Each adjacent pair of maps with top k <= (b+6)/2 is checked to compose
    to zero (:func:`checked_homology`); every other pair is the transpose
    of one of these.  A nonzero composite is a hard error, since the
    complex itself is broken.
    """
    rep, result = checked_homology(f, (f.rank + 6) // 2)
    if result is None:
        raise RuntimeError(f"{rep.failures()[0].name} fails: not a chain complex")
    return result


def checked_homology(f, top=None):
    """The d∘d report of the pairs up to d_top (:func:`cuphom.cup_complex.checked_maps`),
    and the integral homology, or None unless every pair composes to zero.

    Each kept map, k <= (b+3)/2, is eliminated once as the walk yields it,
    while every pair checked so far composes to zero: its Smith normal form
    gives both its rank (where it leaves a degree) and the torsion it cuts
    out (where it enters one), and its dual d_{b+3-k} takes the same
    factors.  After a failure no map is eliminated, but the walk goes on, so
    the report is complete.  The invariant factors above 1 are the tail of a
    divisibility chain, so they are the torsion as they stand.
    """
    b = f.rank
    kept = kept_degrees(b)
    rep, maps = checked_maps(f, top)
    snf = {k: smith_normal_form(rows) for k, rows in maps if k in kept and rep.ok}
    if not rep.ok:
        return rep, None
    snf = _with_duals(b, snf)
    free = _dims(b, {k: len(factors) for k, factors in snf.items()})
    into = [snf.get(k + 3, ()) for k in range(b + 1)]  # factors of the map into degree k
    groups = [AbelianGroup(n, t[t.count(1):]) for n, t in zip(free, into)]
    even = direct_sum(groups[0::2])
    odd = direct_sum(groups[1::2])
    return rep, CupHomologyResult(rank=b, by_degree=tuple(groups), even=even, odd=odd,
                                  h_ev=even.free_rank, h_odd=odd.free_rank,
                                  h=common_dim([g.free_rank for g in groups]))


def common_dim(dims):
    """h from per-degree dimensions: the even and odd parts must agree (else a
    bug); rank 0, a single degree, gives 1/2 by convention."""
    if len(dims) == 1:
        return Fraction(1, 2)
    even = sum(dims[0::2])
    odd = sum(dims[1::2])
    if even != odd:
        raise RuntimeError(f"even and odd dimensions differ ({even} != {odd}): bug")
    return Fraction(even)


def _dims(b, ranks):
    """Dimension C(b, k) - r_k - r_{k+3} in each degree k = 0..b, from a rank
    r_k per boundary map d_k, given as a dict keyed by k (no key: rank 0)."""
    dims = [comb(b, k) for k in range(b + 1)]
    for k, r in ranks.items():
        dims[k] -= r  # only ker d_k survives at degree k
        dims[k - 3] -= r  # im d_k is divided out at degree k - 3
    return dims


def _with_duals(b, kept):
    """Per-map values for k = 3..b from those of the kept half, k <= (b+3)/2.

    d_{b+3-k} is a signed, permuted transpose of d_k
    (:func:`cuphom.cup_complex.dual_degree` certifies it), so the two have
    the same rank over every field and the same invariant factors.  A zero
    value (rank 0, no factors) takes no certificate: then no term of the
    form survives, and the dual map is zero for the same reason.
    """
    return {**kept, **{(dual_degree(b, k) if v else b + 3 - k): v for k, v in kept.items()}}


def _q_ranks(f):
    """Rank over Q of each boundary map d_k, k = 3..b, as a dict keyed by k.

    :func:`cuphom.exact_linalg.q_rank_bound` gives each map a lower bound
    L_k <= r_k = rank_Q(d_k), modulo 2, and for a map it leaves open an
    iterator of dearer bounds: modulo a fixed prime, then exact.  The
    complex certifies an open map: if the bounded homology (:func:`_dims`
    of the L) is zero at its target or at its source,

        C(b, k-3) - L_{k-3} - L_k = 0   or   C(b, k) - L_k - L_{k+3} = 0

    (L = 0 for a map that does not exist), then r_k = L_k.  Proof:
    d_k o d_{k+3} = 0 puts the image of d_{k+3} inside the kernel of d_k,
    so r_k + r_{k+3} <= C(b, k), and likewise r_{k-3} + r_k <= C(b, k-3);
    with every L <= r, a zero on either side forces r_k = L_k.  This is the
    universal-coefficients inequality dim_Q H <= dim_{F_p} H at zero, and
    it relies on d o d = 0.  That holds for every form, since mu ^ mu = 0.
    :func:`checked_homology` checks it for each form that :func:`cup_homology`
    (half the pairs directly, the rest as their transposes) or ``cuphom
    verify`` (every pair) is given; ``test_compiled_maps_match_contraction``
    and ``test_c2a_d_squared_zero`` check the compiled entry tables.

    Every kept map is bounded first.  Then each open map moves one step at
    a time, in rounds over the open maps: before each step the rule is
    checked again, since another map's bound may have risen, and after it
    the map keeps the larger of its bounds, since an unlucky prime can
    fall below the rank modulo 2.  A map whose iterator ends has its exact
    rank.  So the rank modulo the prime runs only where the bounds modulo 2
    left a map open, and the exact finish only where those modulo the
    prime did too.  Any lower bounds will do, and a bound does not depend
    on where the unit phase stopped (it is unimodular), so the dense stop
    changes no decision here.
    Only the kept half is bounded and finished; each dual map takes its
    partner's value (:func:`_with_duals`), so L_{b+3-k} = L_k, the rule sees
    the same zeros for both maps of a pair, and an open pair is finished
    once.  At b = 1 mod 4 the self-dual middle map, 2k = b + 3, is never
    open: :func:`cuphom.exact_linalg.skew_q_rank` ranks it exactly in its
    skew form, so L = r there from the start.
    """
    b = f.rank
    ranks, open_maps = {}, {}
    for k in kept_degrees(b):
        if 2 * k == b + 3 and b % 4 == 1:
            ranks[k], more = skew_q_rank(skew_rows(f)), None
        else:
            ranks[k], more = q_rank_bound(boundary_rows(f, k))
        if more:
            open_maps[k] = more
    while open_maps:
        for k, more in list(open_maps.items()):
            dims = _dims(b, _with_duals(b, ranks))
            bound = next(more, None) if dims[k - 3] and dims[k] else None
            if bound is None:
                del open_maps[k]
            else:
                ranks[k] = max(ranks[k], bound)
    return _with_duals(b, ranks)


def h_rank(f):
    """The invariant h as an exact rational, from Q-ranks alone (no torsion)."""
    return common_dim(_dims(f.rank, _q_ranks(f)))


def mod_p_degree_dims(f, p):
    """F_p dimension of the mod-p homology in each exterior degree."""
    require_prime(p)
    b = f.rank
    return _dims(b, _with_duals(b, {k: rank_over_field(boundary_rows(f, k, p), p)
                                    for k in kept_degrees(b)}))


def h_mod_p(f, p):
    """The mod-p invariant h_p; rejects rank 0 (use the 1/2 convention of h)."""
    if f.rank == 0:
        raise FormError("h_p is defined through the rank; rank 0 uses h = 1/2")
    return int(common_dim(mod_p_degree_dims(f, p)))


@dataclass(frozen=True)
class KpValue:
    """k_p = log2(2 h_p), carried exactly via the pair (h_p, 2 h_p)."""

    p: int
    h_p: Fraction
    doubled: int
    log2_text: str

    @property
    def value(self):
        return math.log2(self.doubled)


def k_p(f, p):
    """Connected-sum-additive invariant log2(2 h_p); p = 1 means h, else p is prime."""
    hp = h_rank(f) if p == 1 else common_dim(mod_p_degree_dims(f, p))
    doubled = int(2 * hp)
    if doubled & (doubled - 1) == 0:
        text = str(doubled.bit_length() - 1)
    else:
        text = f"{math.log2(doubled):.12f}"
    return KpValue(p=p, h_p=hp, doubled=doubled, log2_text=text)


def uct_check(integral, dims, p):
    """Universal-coefficients consistency between integral and mod-p results.

    ``integral`` is the :func:`cup_homology` (Smith normal forms) and ``dims``
    the :func:`mod_p_degree_dims` (F_p ranks) of one form.  In each degree k
    the F_p dimension must equal the free rank plus the p-torsion counts of
    degree k and of degree k - 3 (its predecessor inside the same mod-3 complex).
    """
    rep = CheckReport(f"universal coefficients mod {p} on rank {integral.rank}")

    def t_p(k):
        if k < 0:
            return 0
        return sum(1 for d in integral.by_degree[k].torsion if d % p == 0)

    for k in range(integral.rank + 1):
        expect = integral.by_degree[k].free_rank + t_p(k) + t_p(k - 3)
        rep.add(f"degree {k}", dims[k] == expect,
                "" if dims[k] == expect else f"dim_Fp {dims[k]} != {expect}")
    return rep
