"""Outside-in layer tracing for the benchmark.

The tracer replaces public cuphom names with timing wrappers *where the
callers look them up* (``cuphom.homology.boundary_matrix`` as well as
``cuphom.cup_complex.boundary_matrix``), so no code inside the package has
to know about it.  Each wrapper records one span per call: its name, its
parent span, its duration and its self time (duration minus the time its
child spans cover).  Spans are aggregated in memory per (parent, name)
edge and restored to the original functions by :meth:`Tracer.uninstall`.

A name that no longer exists is recorded in :attr:`Tracer.missing` and
skipped, so a refactor that removes or renames a layer reads as that layer
making zero calls instead of crashing the trace.
"""

import importlib
import os
from collections import defaultdict
from time import perf_counter

ROOT_SPAN = "bench"


def _rank_span(*args, **kwargs):
    characteristic = args[1] if len(args) > 1 else kwargs.get("characteristic", 0)
    return "exact_linalg.rank_q" if characteristic == 0 else "exact_linalg.rank_fp"


def _matrix_of(value):
    """The IntegerMatrix inside a BoundaryMatrix, or the value itself."""
    return getattr(value, "matrix", value)


def _density_hook(counters, args, out):
    m = _matrix_of(out)
    data = getattr(m, "data", None)
    if data is None:
        return
    counters["boundary_entries"] += sum(len(row) for row in data)
    counters["boundary_nonzeros"] += sum(1 for row in data for v in row if v)


def _snf_input_hook(counters, args, out):
    m = _matrix_of(args[0]) if args else None
    counters["snf_input_entries"] += getattr(m, "rows", 0) * getattr(m, "cols", 0)


def _checkpoint_hook(counters, args, out):
    """Bytes of the checkpoint sidecar and result file after a shard call."""
    out_path = args[4] if len(args) > 4 else None
    if out_path is None:
        return
    for path in (f"{out_path}.checkpoint.json", out_path):
        if os.path.exists(path):
            counters["checkpoint_bytes"] += os.path.getsize(path)


# (span name, or a function of the call's arguments that returns it;
#  hook run after the call, outside every span's self time;
#  every (module, attribute) under which callers look the function up)
LAYERS = (
    ("cup_complex.boundary_matrix", _density_hook,
     (("cuphom.cup_complex", "boundary_matrix"), ("cuphom.homology", "boundary_matrix"),
      ("cuphom", "boundary_matrix"))),
    (_rank_span, None,
     (("cuphom.exact_linalg", "rank_over_field"), ("cuphom.homology", "rank_over_field"))),
    ("exact_linalg.smith_normal_form", _snf_input_hook,
     (("cuphom.exact_linalg", "smith_normal_form"), ("cuphom.homology", "smith_normal_form"))),
    ("exact_linalg.matmul", None, (("cuphom.exact_linalg", "IntegerMatrix.mul"),)),
    ("homology.cup_homology", None,
     (("cuphom.homology", "cup_homology"), ("cuphom", "cup_homology"))),
    ("homology.homology_group", None, (("cuphom.homology", "homology_group"),)),
    ("homology.h_rank", None,
     (("cuphom.homology", "h_rank"), ("cuphom.geography", "h_rank"), ("cuphom", "h_rank"))),
    ("homology.h_mod_p", None, (("cuphom.homology", "h_mod_p"), ("cuphom", "h_mod_p"))),
    ("forms.serialize_form", None,
     (("cuphom.forms", "serialize_form"), ("cuphom.geography", "serialize_form"),
      ("cuphom", "serialize_form"))),
    ("geography.scan_shard", None, (("cuphom.geography", "scan_shard"),)),
    ("geography.checkpoint", _checkpoint_hook,
     (("cuphom.geography", "run_shard_to_checkpoint"),)),
)


def _resolve(module_name, attr_path):
    """(owner object, attribute name, current value), or None if missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Span recorder; install() wraps every name in LAYERS, uninstall() restores."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total, self
        self.counters = defaultdict(int)
        self.missing = []
        self._stack = []
        self._saved = []

    def wrap(self, span, fn, hook=None):
        stack, edges, counters = self._stack, self.edges, self.counters

        def traced(*args, **kwargs):
            name = span(*args, **kwargs) if callable(span) else span
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent = stack[-1] if stack else None
                dur = end - start
                edge = edges[(parent[0] if parent else ROOT_SPAN, name)]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
            if hook is not None:
                hook(counters, args, out)
                spent = perf_counter() - end
                counters["hook_s"] += spent
                if parent is not None:
                    # Hook work belongs to the tracer, not to the caller's self time.
                    parent[1] += spent
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for span, hook, sites in self.layers:
            for module_name, attr_path in sites:
                found = _resolve(module_name, attr_path)
                if found is None:
                    site = f"{module_name}.{attr_path}"
                    if site not in self.missing:
                        self.missing.append(site)
                    continue
                owner, attr, fn = found
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(span, fn, hook))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def calls(self, name):
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def self_s(self, name_or_prefix, prefix=False):
        return sum(e[2] for (_, n), e in self.edges.items()
                   if (n.startswith(name_or_prefix) if prefix else n == name_or_prefix))

    def tree_lines(self):
        """Human-readable edge list, heaviest self time first."""
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1][2])
        return [f"{parent:>30} -> {name:<32} calls={e[0]:<8} total={e[1]:9.3f}s self={e[2]:9.3f}s"
                for (parent, name), e in rows]
