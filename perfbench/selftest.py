"""Harness self-test: the benchmark's checks must catch wrong outputs.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

It feeds the checks of ``checks.py`` correct outputs (which must pass) and
corrupted ones - a wrong homology group, a wrong h, a wrong h_p, a wrong
shard checkpoint and a wrong scan result document - and requires the
corrupted set to give failed_ratio > 0 and the correct set 0.  It also
checks that the tracer reports a missing name as a layer with 0 calls
instead of crashing.  Exit status 0 means every expectation held.
"""

import dataclasses
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def scan_result_documents(cuphom, geography, random_form):
    """A correct b = 5 result document and three corrupted copies.

    Witnesses are the first forms found for each h in {10, 12, 16}; the
    check re-derives their h with the oracle, not with cuphom.
    """
    rng = random.Random(0)
    realized = {16: cuphom.trivial(5)}
    for _ in range(10000):
        f = random_form(cuphom.ThreeForm, rng, 5, 1, keep=rng.choice((0.1, 1.0)))
        realized.setdefault(int(cuphom.h_rank(f)), f)
        if len(realized) == 3:
            break
    good = geography.GeographyResult(b=5, coeff_max=1, enumerated_count=59049,
                                     realized=dict(sorted(realized.items())))
    doc = json.loads(geography.result_document(good))
    short = dict(doc, enumerated_count=59048)
    missing = dict(doc, realized=doc["realized"][:-1])
    swapped = dict(doc, realized=[dict(e, h=doc["realized"][(i + 1) % 3]["h"])
                                  for i, e in enumerate(doc["realized"])])
    return json.dumps(doc), [json.dumps(d) for d in (short, missing, swapped)]


def main():
    if not (SRC / "cuphom" / "__init__.py").is_file():
        print(f"error: no cuphom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import cuphom
    from cuphom import geography
    import tracing
    from workloads import ScanB5, random_form

    refs = checks.References()
    rng = random.Random(1)
    f = random_form(cuphom.ThreeForm, rng, 6, 2)
    group = cuphom.cup_homology(f)
    k = 3
    bad_degree = list(group.by_degree)
    bad_degree[k] = cuphom.AbelianGroup(bad_degree[k].free_rank, (2,) + bad_degree[k].torsion)
    wrong_group = dataclasses.replace(group, by_degree=tuple(bad_degree))
    sc_form = cuphom.surface_circle(3)
    sc = cuphom.cup_homology(sc_form)
    wrong_sc = dataclasses.replace(sc, even=sc.odd, odd=cuphom.AbelianGroup(sc.odd.free_rank))
    h = cuphom.h_rank(f)
    h2 = cuphom.h_mod_p(f, 2)

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=HERE.parent) as tmp:
        scan = ScanB5(0, tmp)
        op = scan.cycle(0, "selftest")[0]
        snap = scan.snapshot(op, scan.call(op))
    state = json.loads(snap["checkpoint"])
    wrong_snap = dict(snap, checkpoint=json.dumps(dict(state, enumerated_count=state["enumerated_count"] + 1)))
    good_doc, wrong_docs = scan_result_documents(cuphom, geography, random_form)

    correct = [
        ("group", checks.check_cup(group, f, refs)),
        ("surface_circle(3)", checks.check_cup(sc, sc_form, refs, 3)),
        ("h", checks.check_h_rank(h, f, refs)),
        ("h_2", checks.check_h_mod_p(h2, f, 2, refs)),
        ("shard call", scan.check(op, snap, refs)),
        ("scan result", checks.check_scan_result(good_doc, refs)),
    ]
    corrupted = [
        ("extra Z/2 in one degree", checks.check_cup(wrong_group, f, refs)),
        ("surface_circle(3) even/odd", checks.check_cup(wrong_sc, sc_form, refs, 3)),
        ("h off by one", checks.check_h_rank(h + 1, f, refs)),
        ("h_2 off by one", checks.check_h_mod_p(h2 + 1, f, 2, refs)),
        ("checkpoint count off by one", scan.check(op, wrong_snap, refs)),
    ] + [(f"scan result: {what}", checks.check_scan_result(doc, refs))
         for what, doc in zip(("count 59048", "h = 16 missing", "witnesses permuted"), wrong_docs)]

    ok = True
    for label, bad in correct:
        ok &= not bad
        print(f"{'ok  ' if not bad else 'FAIL'} correct {label} passes{': ' + '; '.join(bad) if bad else ''}")
    for label, bad in corrupted:
        ok &= bool(bad)
        print(f"{'ok  ' if bad else 'FAIL'} corrupted {label} is caught{': ' + bad[0] if bad else ''}")
    for label, cases, want_failed in (("correct", correct, False), ("corrupted", corrupted, True)):
        attempted, failed, _ = checks.tally(bad for _, bad in cases)
        ratio = failed / attempted
        ok &= (ratio > 0) == want_failed
        print(f"{'ok  ' if (ratio > 0) == want_failed else 'FAIL'} {label} outputs: "
              f"failed_ratio = {failed}/{attempted} = {ratio:.3f}")

    tracer = tracing.Tracer(layers=(
        ("gone.layer", None, (("cuphom.homology", "no_such_function"), ("cuphom.no_such_module", "f"))),
        ("homology.h_rank", None, (("cuphom", "h_rank"),)),
    ))
    with tracer:
        cuphom.h_rank(cuphom.trivial(4))
    traced_ok = (len(tracer.missing) == 2 and tracer.calls("gone.layer") == 0
                 and tracer.calls("homology.h_rank") == 1
                 and not hasattr(cuphom.h_rank, "__wrapped__"))
    ok &= traced_ok
    print(f"{'ok  ' if traced_ok else 'FAIL'} tracer: missing names read 0 calls, wrappers removed")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
