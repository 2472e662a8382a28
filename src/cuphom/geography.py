"""Exhaustive scans for realized h values at a fixed rank.

Every 3-form with coefficients in [-coeff_max, coeff_max] is enumerated and
its h recorded, keeping one witness per value: in one pass by
:func:`geography_scan`, or split into shards by a prefix of the coefficient
vector, one :func:`run_shard_to_checkpoint` call per shard.  Merged results
are independent of the shard schedule because the per-h witness is the one
with the least serialized document, a commutative/associative/idempotent
choice.  That choice is made without serializing anything:
:func:`witness_key` orders same-rank forms exactly as their documents, and
is computed once per form.

Scans prove realization only: a value absent from a bounded scan is not
thereby ruled out.
"""

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .exterior import blade_basis
from .forms import (FormError, ThreeForm, _support_pieces, _trusted_form, _write_atomic,
                    serialize_form, transform)
from .homology import h_rank
from .report import CheckReport

SUPPORTED_RANKS = range(1, 7)  # rank 6 is feasible only via sharded runs


@dataclass(frozen=True)
class GeographyResult:
    b: int
    coeff_max: int
    enumerated_count: int
    realized: dict  # h -> witness ThreeForm, keys ascending


def _check_params(b, coeff_max):
    if b not in SUPPORTED_RANKS:
        raise ValueError(f"rank must be in {SUPPORTED_RANKS.start}..{SUPPORTED_RANKS.stop - 1}")
    if coeff_max < 1:
        raise ValueError("coeff_max must be >= 1")


def _shard_layout(n_slots, base, shards):
    """Length of the coefficient prefix used to distribute work over shards.

    When the prefix space is smaller than the shard count, the surplus
    shards simply receive no prefixes; results are unaffected.
    """
    if shards < 1:
        raise ValueError("shard count must be >= 1")
    prefix_len = 0
    space = 1
    while space < shards and prefix_len < n_slots:
        prefix_len += 1
        space *= base
    return prefix_len, space


def witness_key(form):
    """Sort key that orders same-rank forms as :func:`serialize_form` documents do.

    Documents of one rank agree up to their terms.  Each number in a term is
    followed by ``,`` or a newline, both below every digit and ``-``, so terms
    compare as tuples of the ``str`` of their numbers; a form whose terms
    extend another's sorts after it.  The zero form's ``"terms": []`` puts
    ``]`` where every other document has a newline, so it sorts last.
    """
    return (not form.terms, tuple(map(_term_key, form.terms)))


@lru_cache(maxsize=1 << 12)
def _term_key(term):
    return tuple(map(str, term))


def _merge_witness(realized, h, key, form):
    """Keep, per h, the (key, form) pair with the least key."""
    old = realized.get(h)
    if old is None or key < old[0]:
        realized[h] = (key, form)


def _witnesses(realized):
    """h -> witness form, ascending in h, from an h -> (key, form) map."""
    return {h: form for h, (_, form) in sorted(realized.items())}


def scan_shard(b, coeff_max, shards, shard_index):
    """Scan one shard; returns (forms enumerated, h -> (witness key, form))."""
    _check_params(b, coeff_max)
    triples = blade_basis(b, 3)
    values = range(-coeff_max, coeff_max + 1)
    base = len(values)
    prefix_len, _ = _shard_layout(len(triples), base, shards)
    if not 0 <= shard_index < shards:
        raise ValueError("shard index out of range")
    realized = {}
    count = 0
    for rank_of_prefix, prefix in enumerate(product(values, repeat=prefix_len)):
        if rank_of_prefix % shards != shard_index:
            continue
        for tail in product(values, repeat=len(triples) - prefix_len):
            coeffs = prefix + tail
            terms = tuple((i, j, k, a) for (i, j, k), a in zip(triples, coeffs) if a)
            form = _trusted_form(b, terms)
            count += 1
            _merge_witness(realized, int(h_rank(form)), witness_key(form), form)
    return count, realized


def geography_scan(b, coeff_max):
    """Full scan in one pass: the reference every sharded run must reproduce."""
    count, realized = scan_shard(b, coeff_max, 1, 0)
    return GeographyResult(b=b, coeff_max=coeff_max, enumerated_count=count,
                           realized=_witnesses(realized))


def result_document(result):
    doc = {
        "b": result.b,
        "coeff_max": result.coeff_max,
        "enumerated_count": result.enumerated_count,
        "realized": [
            {"h": h, "witness": {"rank": w.rank, "terms": [list(t) for t in w.terms]}}
            for h, w in sorted(result.realized.items())
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_result(result, path):
    """Atomic write of the canonical result document."""
    _write_atomic(path, result_document(result))


# ---------------------------------------------------------------------------
# Resumable sharded runs (checkpoint sidecar next to the output file)

def _checkpoint_path(out_path):
    return f"{out_path}.checkpoint.json"


_CHECKPOINT_FIELDS = {"b": int, "coeff_max": int, "shards": int, "completed": list,
                      "enumerated_count": int, "partial": dict}


def _load_checkpoint(cp_path, params):
    """Read the sidecar of a scan with params (b, coeff_max, shards); returns
    (state, h -> (witness key, form)).

    Refuses, naming the file, anything but the shape
    :func:`run_shard_to_checkpoint` writes: an object with every field of its
    JSON type and the same params, ``completed`` a list of distinct shard
    indices in ``range(shards)``, ``enumerated_count`` the number of forms in
    those shards and ``partial`` a map from decimal h to terms that
    :class:`~cuphom.forms.ThreeForm` accepts for a rank-b witness of that h.
    """
    with open(cp_path, encoding="utf-8") as fh:
        state = json.load(fh)
    if not isinstance(state, dict):
        raise ValueError(f"checkpoint {cp_path} is not a JSON object")
    for key, kind in _CHECKPOINT_FIELDS.items():
        if type(state.get(key)) is not kind:
            raise ValueError(f"checkpoint {cp_path}: {key!r} is missing or not a {kind.__name__}")
    if (state["b"], state["coeff_max"], state["shards"]) != params:
        raise ValueError(f"checkpoint {cp_path} was written with different scan parameters")
    b, coeff_max, shards = params
    completed = state["completed"]
    if (not all(type(s) is int and 0 <= s < shards for s in completed)
            or len(set(completed)) != len(completed)):
        raise ValueError(f"checkpoint {cp_path}: 'completed' must hold distinct shard "
                         f"indices in 0..{shards - 1}")
    slots, base = len(blade_basis(b, 3)), 2 * coeff_max + 1
    prefix_len, space = _shard_layout(slots, base, shards)
    count = base ** (slots - prefix_len) * sum(len(range(i, space, shards)) for i in completed)
    if state["enumerated_count"] != count:
        raise ValueError(f"checkpoint {cp_path}: 'enumerated_count' must be {count}, the "
                         "number of forms in its completed shards")
    realized = {}
    for h, terms in state["partial"].items():
        if not (h.isascii() and h.isdecimal()):
            raise ValueError(f"checkpoint {cp_path}: 'partial' key {h!r} is not a decimal h")
        try:
            form = ThreeForm(b, terms)
        except FormError as e:
            raise ValueError(f"checkpoint {cp_path}: witness for h = {h}: {e}") from None
        if h_rank(form) != int(h):
            raise ValueError(f"checkpoint {cp_path}: witness for h = {h} has "
                             f"h = {h_rank(form)}")
        realized[int(h)] = (witness_key(form), form)
    return state, realized


def run_shard_to_checkpoint(b, coeff_max, shards, shard_index, out_path):
    """Run one shard, fold it into the sidecar, and finalize when complete.

    The sidecar records b, coeff_max, the shard count, which shard indices
    are done, and the partial merge.  Re-running a completed shard is a
    no-op; the result file is written (atomically) only once every shard has
    been folded in, so it is always a complete canonical document.  It is
    written before the sidecar, so an interrupted last shard runs again.
    """
    _check_params(b, coeff_max)
    cp_path = _checkpoint_path(out_path)
    state = {"b": b, "coeff_max": coeff_max, "shards": shards,
             "completed": [], "enumerated_count": 0, "partial": {}}
    realized = {}
    if os.path.exists(cp_path):
        state, realized = _load_checkpoint(cp_path, (b, coeff_max, shards))
    if shard_index in state["completed"]:
        return False
    count, part = scan_shard(b, coeff_max, shards, shard_index)
    for h, (key, form) in part.items():
        _merge_witness(realized, h, key, form)
    witnesses = _witnesses(realized)
    state["partial"] = {str(h): [list(t) for t in form.terms] for h, form in witnesses.items()}
    state["enumerated_count"] += count
    state["completed"] = sorted(set(state["completed"]) | {shard_index})
    done = len(state["completed"]) == shards
    if done:
        write_result(GeographyResult(b=b, coeff_max=coeff_max,
                                     enumerated_count=state["enumerated_count"],
                                     realized=witnesses), out_path)
    _write_atomic(cp_path, json.dumps(state, indent=2) + "\n")
    return done


# ---------------------------------------------------------------------------
# Structural checks on scan output

def check_reducible_constraints(result):
    """Cross-check block-structured witnesses against the connected-sum law.

    Every witness whose support splits into >= 2 blocks must satisfy
    h = 2^(pieces-1) * product of the piece values; at rank 5 that pins
    h to {12, 16}.  Odd-h witnesses are flagged as rationally irreducible
    candidates.
    """
    if result.b > 5:
        raise ValueError("reducible constraints are checked for rank <= 5")
    rep = CheckReport(f"reducible constraints for b = {result.b}")
    for h, witness in sorted(result.realized.items()):
        if h % 2:
            rep.add(f"h = {h}: odd, rationally irreducible witness", True,
                    serialize_form(witness).strip().replace("\n", " "))
        pieces = _support_pieces(witness)
        if len(pieces) < 2:
            continue
        predicted = 2 ** (len(pieces) - 1)
        for piece in pieces:
            inclusion = [[int(idx == p) for p in piece] for idx in range(1, witness.rank + 1)]
            predicted *= int(h_rank(transform(witness, inclusion)))
        rep.add(f"h = {h}: block witness obeys the product law",
                predicted == h, f"{len(pieces)} pieces predict {predicted}")
        if result.b == 5:
            rep.add(f"h = {h}: rank-5 block value in {{12, 16}}", h in (12, 16), str(h))
    if not rep.items:
        rep.add("no block-structured witnesses", True)
    return rep
