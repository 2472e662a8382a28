"""Command-line front end.  All numerical work lives in the library modules.

Exit codes: 0 success, 1 a verified property failed, 2 bad input or usage.
"""

import argparse
import json
import os
import sys

from . import combinatorics, geography
from .cup_complex import dump_boundary_matrices
from .forms import (FormError, _write_atomic, builtin_family, connected_sum, parse_form,
                    require_prime, serialize_form)
from .homology import (AbelianGroup, checked_homology, common_dim, cup_homology, h_rank,
                       mod_p_degree_dims, uct_check)
from .report import CheckReport

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _load_form(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise FormError(f"cannot read {path}: {e}") from None
    return parse_form(text)


def _cmd_compute(args):
    f = _load_form(args.form)
    if args.dump_matrices:
        os.makedirs(args.dump_matrices, exist_ok=True)
    if args.prime is not None:
        dims = mod_p_degree_dims(f, args.prime)
        per_degree = [AbelianGroup(0, (args.prime,) * d) for d in dims]
        even = AbelianGroup(0, (args.prime,) * sum(dims[0::2]))
        odd = AbelianGroup(0, (args.prime,) * sum(dims[1::2]))
        h_text = str(common_dim(dims))
        h_label = f"h_{args.prime}"
    else:
        result = cup_homology(f)
        per_degree = list(result.by_degree)
        even, odd = result.even, result.odd
        h_text = str(result.h)
        h_label = "h"
    if args.dump_matrices:
        dump_boundary_matrices(f, args.dump_matrices)
    if args.json:
        doc = {
            "rank": f.rank,
            "prime": args.prime,
            "degrees": [g.render() for g in per_degree],
            "even": even.render(),
            "odd": odd.render(),
            h_label: h_text,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"rank: {f.rank}")
        for k, g in enumerate(per_degree):
            print(f"degree {k}: {g.render()}")
        print(f"even: {even.render()}")
        print(f"odd: {odd.render()}")
        print(f"{h_label} = {h_text}")
    return EXIT_OK


def _cmd_h(args):
    f = _load_form(args.form)
    print(f"h = {h_rank(f)}")
    return EXIT_OK


def _cmd_sum(args):
    f = connected_sum(_load_form(args.form1), _load_form(args.form2))
    _write_atomic(args.out, serialize_form(f))
    return EXIT_OK


def _cmd_builtin(args):
    params = {}
    for name in ("n", "g", "w", "v0", "b"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    f = builtin_family(args.family, **params)
    _write_atomic(args.out, serialize_form(f))
    return EXIT_OK


def _cmd_bounds(args):
    b = args.b
    if b < 1:
        raise FormError("--b must be >= 1")
    s = [combinatorics.euler_sum(b, j) for j in range(3)]
    print("b\tS0\tS1\tS2\tL\tupper")
    print(f"{b}\t{s[0]}\t{s[1]}\t{s[2]}\t{combinatorics.lower_bound_L(b)}\t{2 ** (b - 1)}")
    return EXIT_OK


def _cmd_verify(args):
    f = _load_form(args.form)
    try:
        primes = [int(p) for p in args.primes.split(",") if p]
    except ValueError:
        raise FormError(f"--primes must be a comma-separated integer list, got {args.primes!r}")
    for p in primes:
        require_prime(p)
    d_squared, result = checked_homology(f)
    reports = [d_squared]
    if result is not None:
        if f.rank >= 1:
            euler = CheckReport("h_ev = h_odd")
            euler.add("h_ev = h_odd", result.h_ev == result.h_odd,
                      f"{result.h_ev} vs {result.h_odd}")
            reports += [euler, combinatorics.bounds_report(f, result.h)]
        else:
            print("rank 0: h = 1/2 by convention; bound checks skipped")
        for p in primes:
            reports.append(uct_check(result, mod_p_degree_dims(f, p), p))
    ok = True
    for rep in reports:
        for line in rep.lines():
            print(f"[{rep.title}] {line}")
        ok = ok and rep.ok
    print("verify: PASS" if ok else "verify: FAIL")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_geography(args):
    if args.shard is not None:
        shards = 1 if args.shards is None else args.shards
        done = geography.run_shard_to_checkpoint(args.b, args.coeff_max, shards,
                                                 args.shard, args.out)
        state = "complete" if done else "checkpointed"
        print(f"shard {args.shard}/{shards}: {state}")
        return EXIT_OK
    if args.shards is not None:
        raise ValueError("--shards needs --shard: run each shard as its own invocation")
    result = geography.geography_scan(args.b, args.coeff_max)
    geography.write_result(result, args.out)
    print(f"scanned {result.enumerated_count} forms at b={args.b}, "
          f"coeff_max={args.coeff_max}; realized h: {sorted(result.realized)}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cuphom",
        description="Cup homology of closed 3-manifolds from the triple cup product form.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="per-degree groups, even/odd parts, and h or h_p")
    p.add_argument("form", help="path to a form document")
    p.add_argument("--prime", type=int, default=None, help="compute mod-p homology instead")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--dump-matrices", metavar="DIR", default=None,
                   help="also write boundary matrices as text grids")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("h", help="print the invariant h")
    p.add_argument("form")
    p.set_defaults(fn=_cmd_h)

    p = sub.add_parser("sum", help="connected sum of two form documents")
    p.add_argument("form1")
    p.add_argument("form2")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=_cmd_sum)

    p = sub.add_parser("builtin", help="write a built-in family form")
    p.add_argument("family", choices=("trivial", "torus3", "surface_circle", "mapping_torus"))
    p.add_argument("--n", type=int, default=None, help="torus3 coefficient")
    p.add_argument("--g", type=int, default=None, help="genus")
    p.add_argument("--w", type=int, default=None, help="mapping torus symplectic pairs")
    p.add_argument("--v0", type=int, default=None, help="mapping torus null rank")
    p.add_argument("--b", type=int, default=None, help="rank for the trivial family")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=_cmd_builtin)

    p = sub.add_parser("bounds", help="S(b, j), L(b) and 2^(b-1) as TSV")
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("verify", help="run the property checks on a form")
    p.add_argument("form")
    p.add_argument("--primes", default="2,3,5", help="comma-separated primes for mod-p checks")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("geography", help="scan realized h values at fixed rank")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--coeff-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shards", type=int, default=None, help="shard count for --shard (default 1)")
    p.add_argument("--shard", type=int, default=None,
                   help="run a single shard and fold it into the checkpoint")
    p.set_defaults(fn=_cmd_geography)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as e:  # FormError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
