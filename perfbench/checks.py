"""Output checks against references that share no elimination code with cuphom.

References:

* ``cuphom.oracles.field_homology_oracle`` - dense Bareiss (over Q) and dense
  Gaussian elimination (over F_p) on the boundary matrices, for per-degree
  homology dimensions;
* ``cuphom.oracles.surface_circle_expected`` - the closed-form even/odd
  groups of a surface times a circle;
* for the b = 5 scan: the form count 3^10 = 59049, the realized set
  {10, 12, 16}, and every witness's h re-derived by the Bareiss oracle.

Each check returns a list of mismatch descriptions; an empty list means the
output agrees with the reference.  ``tally`` turns checks into the
(attempted, failed) pair behind ``failed_ratio``.
"""

import importlib
import json
from fractions import Fraction

SCAN_B = 5
SCAN_COEFF_MAX = 1
SCAN_FORMS = (2 * SCAN_COEFF_MAX + 1) ** 10  # C(5, 3) = 10 coefficients
SCAN_H_SET = frozenset({10, 12, 16})
TORSION_PRIMES = (2, 3)


class References:
    """Oracle dimensions per distinct form, computed once and cached."""

    def __init__(self):
        self.oracles = importlib.import_module("cuphom.oracles")
        self.forms = importlib.import_module("cuphom.forms")
        self._dims = {}

    def dims(self, form, characteristic):
        key = (form.rank, form.terms, characteristic)
        if key not in self._dims:
            self._dims[key] = list(self.oracles.field_homology_oracle(form, characteristic))
        return self._dims[key]

    def h(self, form, characteristic=0):
        if form.rank == 0:
            return Fraction(1, 2)
        return Fraction(sum(self.dims(form, characteristic)[0::2]))

    def h_of_terms(self, rank, terms):
        return self.h(self.forms.ThreeForm(rank, tuple(tuple(t) for t in terms)))


def _p_torsion(group, p):
    return sum(1 for d in group.torsion if d % p == 0)


def check_cup(result, form, refs, genus=None):
    """Integral homology: closed form for surface x circle, oracle dims otherwise.

    Free ranks must equal the Q dimensions in every degree; for p in
    TORSION_PRIMES the F_p dimension in degree k must equal the free rank
    plus the p-torsion summands of degrees k and k - 3 (universal
    coefficients), which pins the number of summands divisible by p.
    """
    bad = []
    if genus is not None:
        even, odd = refs.oracles.surface_circle_expected(genus)
        if (result.even, result.odd) != (even, odd):
            bad.append(f"surface_circle({genus}): got {result.even.render()} / "
                       f"{result.odd.render()}, expected {even.render()} / {odd.render()}")
    else:
        q = refs.dims(form, 0)
        if len(result.by_degree) != len(q):
            return [f"{len(result.by_degree)} degrees, expected {len(q)}"]
        free = [g.free_rank for g in result.by_degree]
        if free != q:
            bad.append(f"free ranks {free} != Q dims {q}")
        for p in TORSION_PRIMES:
            dp = refs.dims(form, p)
            tp = [_p_torsion(g, p) for g in result.by_degree]
            want = [free[k] + tp[k] + (tp[k - 3] if k >= 3 else 0) for k in range(len(q))]
            if want != dp:
                bad.append(f"mod-{p} dims {want} != F_{p} oracle {dp}")
            for parity, total in ((0, result.even), (1, result.odd)):
                if _p_torsion(total, p) != sum(tp[parity::2]):
                    bad.append(f"parity {parity}: {p}-torsion summands disagree with degrees")
        if (result.even.free_rank, result.odd.free_rank) != (sum(q[0::2]), sum(q[1::2])):
            bad.append("even/odd free ranks disagree with Q dims")
    if form.rank >= 1 and result.h != result.even.free_rank:
        bad.append(f"h = {result.h} but even free rank is {result.even.free_rank}")
    return bad


def check_h_rank(value, form, refs):
    want = refs.h(form, 0)
    return [] if value == want else [f"h_rank = {value}, oracle {want}"]


def check_h_mod_p(value, form, p, refs):
    want = refs.h(form, p)
    return [] if value == want else [f"h_mod_p(p={p}) = {value}, oracle {want}"]


def _check_witnesses(realized, refs, where):
    """realized: iterable of (h, terms) from a checkpoint or result document."""
    bad = []
    for h, terms in realized:
        if int(h) not in SCAN_H_SET:
            bad.append(f"{where}: h = {h} outside {sorted(SCAN_H_SET)}")
        got = refs.h_of_terms(SCAN_B, terms)
        if got != int(h):
            bad.append(f"{where}: witness for h = {h} has oracle h = {got}")
    return bad


def check_scan_result(text, refs):
    """A finished b = 5 result document: count, realized set, every witness."""
    try:
        doc = json.loads(text)
        realized = [(e["h"], e["witness"]["terms"]) for e in doc["realized"]]
        header = (doc["b"], doc["coeff_max"], doc["enumerated_count"])
    except (ValueError, KeyError, TypeError) as e:
        return [f"result document unreadable: {e!r}"]
    bad = []
    if header != (SCAN_B, SCAN_COEFF_MAX, SCAN_FORMS):
        bad.append(f"result header (b, coeff_max, count) = {header}")
    if {int(h) for h, _ in realized} != SCAN_H_SET:
        bad.append(f"realized h set {sorted(int(h) for h, _ in realized)} != {sorted(SCAN_H_SET)}")
    return bad + _check_witnesses(realized, refs, "result")


def check_shard_call(expect, snap, refs):
    """One run_shard_to_checkpoint call, from the files it left behind.

    ``expect`` holds what the call must have produced: the cumulative
    enumerated count, the completed shard set, and whether it finished the
    pass (and so must have written the result document).
    """
    bad = []
    if snap["done"] != expect["last"]:
        bad.append(f"returned {snap['done']!r}, expected {expect['last']!r}")
    try:
        state = json.loads(snap["checkpoint"])
        partial = list(state["partial"].items())
        got = (state["enumerated_count"], sorted(state["completed"]))
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return bad + [f"checkpoint unreadable: {e!r}"]
    want = (expect["count"], expect["completed"])
    if got != want:
        bad.append(f"checkpoint (count, completed) = {got}, expected {want}")
    bad += _check_witnesses(partial, refs, "checkpoint")
    if expect["last"]:
        if snap["result"] is None:
            bad.append("pass finished but no result document was written")
        else:
            bad += check_scan_result(snap["result"], refs)
    elif snap["result"] is not None:
        bad.append("result document written before the last shard")
    return bad


def tally(mismatch_lists):
    """(attempted, failed, first mismatches) over a sequence of check results."""
    attempted = failed = 0
    examples = []
    for bad in mismatch_lists:
        attempted += 1
        if bad:
            failed += 1
            if len(examples) < 5:
                examples.append("; ".join(bad))
    return attempted, failed, examples
