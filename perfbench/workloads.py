"""The benchmark's workloads: inputs made from a seed, operations, checks.

Every workload is a closed loop on one thread: the runner calls one
operation, waits for it, then calls the next.  A workload supplies

* ``cycle(k, tag)`` - the operations of its k-th pass over the inputs;
* ``call(op)`` - one operation, the only part that is timed;
* ``snapshot(op, out)`` - what to keep for checking, taken after the timer;
* ``units(op)`` - forms (scan) or calls (the others) one operation completes;
* ``ops_per_s(timed)`` - throughput from (op, seconds) pairs;
* ``check(op, kept, refs)`` - mismatches against the references.

Operations look cuphom functions up on their modules at call time, so the
tracer's wrappers are seen without the workload knowing about them.
"""

import importlib
import random
import statistics
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path

import checks


def random_form(ThreeForm, rng, b, coeff_max, keep=1.0):
    """Form on rank b; each triple is drawn with probability ``keep``,
    its coefficient uniform in [-coeff_max, coeff_max] (zeros dropped)."""
    coeffs = {}
    for t in combinations(range(1, b + 1), 3):
        if keep >= 1.0 or rng.random() < keep:
            a = rng.randint(-coeff_max, coeff_max)
            if a:
                coeffs[t] = a
    return ThreeForm.from_coeffs(b, coeffs)


def interleave(rng, *classes):
    """Shuffle each class, then spread the classes evenly through one list.

    A run stops between any two operations when its time is up, so every
    prefix of a pass should hold the classes in their pass proportions.
    """
    keyed = []
    for c, members in enumerate(classes):
        members = list(members)
        rng.shuffle(members)
        keyed += [((i + 0.5) / len(members), c, i, m) for i, m in enumerate(members)]
    keyed.sort(key=lambda t: t[:3])
    return [m for *_, m in keyed]


class Workload:
    name = ""
    why = ""
    enumerates_forms = False

    def __init__(self, seed, workdir):
        self.cuphom = importlib.import_module("cuphom")
        self.seed = seed
        self.workdir = Path(workdir)
        self.rng = random.Random(f"{self.name}:{seed}")

    def warm_up_ranks(self, ranks):
        blade_basis = importlib.import_module("cuphom.exterior").blade_basis
        for b in ranks:
            for k in range(-3, b + 1):
                blade_basis(b, k)

    def cycle(self, k, tag):
        return self.order

    def snapshot(self, op, out):
        return out

    def units(self, op):
        return 1

    def ops_per_s(self, timed):
        """Calls completed per second of call time."""
        return len(timed) / sum(dt for _, dt in timed)


@dataclass(frozen=True)
class FormCase:
    label: str
    form: object
    genus: object = None  # set for surface_circle(genus): checked by the closed form


class HomologyDense(Workload):
    """cup_homology on dense b = 9 and b = 10 forms plus surface x circle.

    Per pass: 14 dense b = 9 forms and surface_circle(4) (about 0.03-0.2 s
    each at the baseline) against 8 dense b = 10 forms and surface_circle(5)
    (1.3-1.9 s each).  A 30 s run at the baseline makes 37-61 calls: the
    median falls 4-8 calls below the top of the light class, and the tail
    percentile (10 calls beyond it) 3-12 calls above the bottom of the heavy
    class, so neither sits on the b = 9 / b = 10 boundary.
    """

    name = "homology-dense"
    why = ("cup_homology on dense b=9/b=10 forms and surface_circle(4), (5): "
           "SNF and a redundant Q-rank per map dominate, geography idle")
    N_B9 = 14
    N_B10 = 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        cu, rng = self.cuphom, self.rng
        light = [FormCase(f"dense-b9-{i}", random_form(cu.ThreeForm, rng, 9, 1))
                 for i in range(self.N_B9)]
        heavy = [FormCase(f"dense-b10-{i}", random_form(cu.ThreeForm, rng, 10, 1))
                 for i in range(self.N_B10)]
        light.append(FormCase("surface_circle-4", cu.surface_circle(4), 4))
        heavy.append(FormCase("surface_circle-5", cu.surface_circle(5), 5))
        self.order = interleave(rng, light, heavy)

    def warm_up(self):
        self.warm_up_ranks((9, 10, 11))
        self.cuphom.cup_homology(self.cuphom.surface_circle(2))

    def call(self, op):
        return self.cuphom.cup_homology(op.form)

    def check(self, op, out, refs):
        return checks.check_cup(out, op.form, refs, op.genus)


@dataclass(frozen=True)
class RankCase:
    label: str
    form: object
    p: int  # 0: h_rank (over Q); a prime: h_mod_p


class RankFields(Workload):
    """h_rank and h_mod_p for p = 2, 3 on zero, sparse and dense forms, coefficients in [-9, 9].

    Per pass each form gets h_rank, h_mod_p(2) and h_mod_p(3): the zero
    forms of rank 9 and 10, 9 sparse b = 9 forms (30% of triples), 10 dense
    b = 9 forms and 5 dense b = 10 forms.  Over Q the sparse elimination
    grows integers (dense b = 10: about 1 s); over F_p it is cheap.  At the
    baseline the 78 calls of a pass sort into classes: 24 below 7 ms (zero
    forms, F_p on sparse b = 9), then the 10 F_2 calls on dense b = 9 (about
    12 ms), then the 10 F_3 calls on dense b = 9 (about 15 ms), then 34
    slower calls.  The median falls in the middle of the dense-b9 F_3
    class, and the tail percentile among the dense b = 10 h_rank calls
    (about 1 s each; 13-22 of them in a 30 s run).
    """

    name = "rank-fields"
    why = ("h_rank over Q beside h_mod_p over F_2, F_3 on zero/sparse/dense forms "
           "with coefficients to 9: integer growth vs cheap mod-p, no SNF")
    MIX = (  # (label, rank, share of triples drawn, forms per pass)
        ("dense-b10", 10, 1.0, 5),
        ("dense-b9", 9, 1.0, 10),
        ("sparse-b9", 9, 0.3, 9),
    )
    PRIMES = (2, 3)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        cu, rng = self.cuphom, self.rng
        groups = [[(f"zero-b{b}", cu.trivial(b)) for b in (9, 10)]]
        for label, b, keep, count in self.MIX:
            groups.append([(f"{label}-{i}", random_form(cu.ThreeForm, rng, b, 9, keep))
                           for i in range(count)])
        classes = [[RankCase(label, f, p) for label, f in group]
                   for group in groups for p in (0,) + self.PRIMES]
        self.order = interleave(rng, *classes)

    def warm_up(self):
        self.warm_up_ranks((9, 10))
        small = self.cuphom.surface_circle(2)
        self.cuphom.h_rank(small)
        self.cuphom.h_mod_p(small, 2)

    def call(self, op):
        if op.p == 0:
            return self.cuphom.h_rank(op.form)
        return self.cuphom.h_mod_p(op.form, op.p)

    def check(self, op, out, refs):
        if op.p == 0:
            return checks.check_h_rank(out, op.form, refs)
        return checks.check_h_mod_p(out, op.form, op.p, refs)


@dataclass(frozen=True)
class ShardCall:
    out_path: str
    shard: int
    forms: int
    count: int  # cumulative enumerated count once this call is folded in
    completed: list
    last: bool

    @property
    def label(self):
        return f"shard {self.shard} of pass {Path(self.out_path).parent.name}"


class ScanB5(Workload):
    """Exhaustive b = 5, coefficient-bound-1 scan through the checkpoint flow.

    Each pass scans all 81 shards (729 forms each, 59049 in all) into a fresh
    output path, one run_shard_to_checkpoint call per shard, in an order
    drawn from the seed.  Matrices are at most 10 x 10, so per-form overhead
    (matrix construction, Q-rank, witness serialization) dominates and SNF
    never runs.
    """

    name = "scan-b5"
    enumerates_forms = True
    why = ("exhaustive b=5 coefficient-1 scan (59049 forms) via run_shard_to_checkpoint: "
           "tiny matrices, per-form overhead dominates, no SNF")
    SHARDS = 81

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.geography = importlib.import_module("cuphom.geography")
        n_slots = comb(checks.SCAN_B, 3)
        base = 2 * checks.SCAN_COEFF_MAX + 1
        prefix_len, space = 0, 1
        while space < self.SHARDS:
            prefix_len, space = prefix_len + 1, space * base
        per_prefix = base ** (n_slots - prefix_len)
        self.shard_forms = [per_prefix * len(range(i, space, self.SHARDS))
                            for i in range(self.SHARDS)]
        if sum(self.shard_forms) != checks.SCAN_FORMS:
            raise RuntimeError("shard layout does not cover the scan")

    def warm_up(self):
        self.warm_up_ranks((checks.SCAN_B,))
        warm = self.workdir / "warm-up"
        warm.mkdir(parents=True, exist_ok=True)
        self.geography.run_shard_to_checkpoint(3, 1, 1, 0, str(warm / "g3.json"))

    def cycle(self, k, tag):
        order = list(range(self.SHARDS))
        random.Random(f"{self.name}:{self.seed}:{k}").shuffle(order)
        pass_dir = self.workdir / f"{tag}-{k}"
        pass_dir.mkdir(parents=True, exist_ok=True)
        out_path = str(pass_dir / "scan.json")
        ops, count, done = [], 0, []
        for n, shard in enumerate(order):
            count += self.shard_forms[shard]
            done = sorted(done + [shard])
            ops.append(ShardCall(out_path, shard, self.shard_forms[shard], count, done,
                                 n == self.SHARDS - 1))
        return ops

    def call(self, op):
        return self.geography.run_shard_to_checkpoint(
            checks.SCAN_B, checks.SCAN_COEFF_MAX, self.SHARDS, op.shard, op.out_path)

    def snapshot(self, op, out):
        with open(f"{op.out_path}.checkpoint.json", encoding="utf-8") as fh:
            checkpoint = fh.read()
        result = Path(op.out_path)
        return {"done": out, "checkpoint": checkpoint,
                "result": result.read_text(encoding="utf-8") if result.exists() else None}

    def units(self, op):
        return op.forms

    def ops_per_s(self, timed):
        """Forms per second, the median over shard calls.

        Every pass holds every shard, so the median compares like with like
        across runs, and a neighbour stalling a few calls does not move it.
        """
        return statistics.median(op.forms / dt for op, dt in timed)

    def check(self, op, kept, refs):
        expect = {"count": op.count, "completed": op.completed, "last": op.last}
        return checks.check_shard_call(expect, kept, refs)


WORKLOADS = {w.name: w for w in (ScanB5, HomologyDense, RankFields)}
