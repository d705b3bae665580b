"""Per-layer spans around opderiv's public functions, installed from outside.

The program source is not edited.  ``Tracer.install`` replaces each target
below by a wrapper in the module that calls it (``opderiv.reflexivity``
calls ``nullspace_of_constraints`` through its own global, so that is the
name wrapped); ``uninstall`` puts the originals back.  Each wrapper records a
span ``(name, start, end, parent, case)`` in memory.  A span's self time is
its duration minus the time its child spans cover.

Counts (rows, columns, bytes, blocks) are computed from argument shapes;
they are arithmetic on shapes, not measurements of memory traffic.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("core", "reflexivity", "derivation", "triangular", "scenarios", "harness", "cli")


def _count_nullspace(counts, args):
    constraints = args["constraints"] = list(args["constraints"])
    d2 = args["dim"] ** 2
    rows = sum(getattr(c, "shape", (d2,))[0] for c in constraints)
    counts["core.nullspace.rows"] += rows
    counts["core.nullspace.mbytes"] += rows * d2 * 16 / 1e6
    counts["core.nullspace.max_cols"] = max(counts["core.nullspace.max_cols"], d2)
    return "core.nullspace"


def _classify_solve(counts, args):
    """Name an ``alg_of_family`` call from its arguments.

    A plain list of subspaces is a ``lat_family`` certification attempt.  An
    InvariantFamily of order >= 1 without ``Q_`` members is the ``needed_Q``
    solve; any other InvariantFamily is the main corner solve.
    """
    family = args["family"]
    if not hasattr(family, "labels"):
        return "reflexivity.certify"
    if family.order >= 1 and not any(label.startswith("Q_") for label in family.labels):
        return "reflexivity.needed_q_solve"
    return "reflexivity.alg_solve"


def _count_blocks(counts, args):
    counts["derivation.band.blocks"] += len(args["bm"].blocks)
    return "derivation.band"


def _count_membership(counts, args):
    counts["core.membership.calls"] += 1
    return None  # counted, not spanned: closure checks make thousands of calls


# (module, attribute path, span name, hook).  A hook sees the bound
# arguments, may update counts, and returns the span name (None: no span).
TARGETS = [
    ("reflexivity", "nullspace_of_constraints", None, _count_nullspace),
    ("core", "OperatorSpace.__post_init__", "core.operator_space", None),
    ("core", "OperatorSpace.product_closure_residual", "core.closure", None),
    ("core", "OperatorSpace.membership_residual", None, _count_membership),
    ("reflexivity", "bicommutant", "reflexivity.bicommutant", None),
    ("reflexivity", "lat_family", "reflexivity.lat_family", None),
    ("reflexivity", "invariant_family", "reflexivity.invariant_family", None),
    ("harness", "invariant_family", "reflexivity.invariant_family", None),
    ("reflexivity", "alg_of_family", None, _classify_solve),
    ("reflexivity", "reflexivity_check", "reflexivity.check", None),
    ("harness", "reflexivity_check", "reflexivity.check", None),
    ("harness", "invariance_residuals", "reflexivity.invariance_residuals", None),
    ("harness", "band_embed", "derivation.band", None),
    ("harness", "band_derivation", None, _count_blocks),
    ("derivation", "BandMatrix.assemble", "derivation.band", None),
    ("derivation", "automorphism", "derivation.automorphism", None),
    ("harness", "automorphism", "derivation.automorphism", None),
    ("derivation", "commutator_derivative", "derivation.commutator", None),
    ("harness", "commutator_derivative", "derivation.commutator", None),
    ("harness", "leibniz_check", "derivation.checks", None),
    ("harness", "lipschitz_check", "derivation.checks", None),
    ("harness", "uniform_convergence_check", "derivation.checks", None),
    ("triangular", "triangular_representation", "triangular.rep", None),
    ("reflexivity", "triangular_representation", "triangular.rep", None),
    ("triangular", "corner_exponential", "triangular.corner_exp", None),
    ("reflexivity", "corner_exponential", "triangular.corner_exp", None),
    ("harness", "conjugation_identity_check", "triangular.checks", None),
    ("harness", "homomorphism_check", "triangular.checks", None),
    ("harness", "norm_sandwich_check", "triangular.checks", None),
    ("harness", "ad_expansion_check", "triangular.checks", None),
    ("harness", "build_scenario", "scenarios.build", None),
    ("harness", "run_checks", "harness.run_checks", None),
    ("cli", "run_checks", "harness.run_checks", None),
    ("cli", "main", "cli.main", None),
]


def _resolve(module, path):
    owner = importlib.import_module(f"opderiv.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder for one run; one span list per traced pass."""

    def __init__(self):
        self.passes = []  # (spans, counts) per traced pass, kept until the run ends
        self.case = None
        self._spans = None
        self._counts = None
        self._stack = []
        self._saved = []

    def install(self):
        """Start a traced pass: wrap every target."""
        self._spans, self._counts = [], Counter()
        self.passes.append((self._spans, self._counts))
        for module, path, name, hook in TARGETS:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self):
        """End the traced pass: restore every original."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._stack.clear()

    def _wrap(self, fn, name, hook):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                span = hook(self._counts, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            if span is None:
                return fn(*args, **kwargs)
            idx = len(self._spans)
            parent = self._stack[-1] if self._stack else -1
            self._spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._spans[idx] = (span, start, end, parent, self.case)

        return traced


def aggregate(spans, counts, wall, overhead=0.0):
    """Per-span-name inclusive time, self time and calls for one pass, and
    the smallest self time of a single span."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    incl, self_s, calls, module_self = defaultdict(float), defaultdict(float), Counter(), defaultdict(float)
    rooted, min_self = 0.0, float("inf")
    for i, (name, start, end, parent, _) in enumerate(spans):
        own = (end - start) - child[i]
        min_self = min(min_self, own)
        incl[name] += end - start
        self_s[name] += own
        calls[name] += 1
        module_self[name.split(".")[0]] += own
        if parent < 0:
            rooted += end - start
    return {"incl": incl, "self": self_s, "calls": calls, "counts": counts,
            "module_self": module_self, "wall": wall, "unattributed": wall - rooted, "overhead": overhead,
            "min_self": min_self if spans else 0.0}


# Per-layer metrics as (name, unit, better).  "<span>.s" is the span's
# inclusive time, "<span>.self_s" its self time and "<span>.calls" its number
# of spans, unless the name is in COUNTERS.  NOTES.md names, for
# each, the end-to-end metric and workload a change to it should move.
PER_LAYER = [
    ("core.nullspace.self_s", "s", "lower"),
    ("core.nullspace.calls", "count", "lower"),
    ("core.nullspace.rows", "count", "lower"),
    ("core.nullspace.max_cols", "count", "lower"),
    ("core.nullspace.mbytes", "MB", "lower"),
    ("core.operator_space.self_s", "s", "lower"),
    ("core.closure.self_s", "s", "lower"),
    ("core.membership.calls", "count", "lower"),
    ("reflexivity.bicommutant.s", "s", "lower"),
    ("reflexivity.lat_family.s", "s", "lower"),
    ("reflexivity.lat_family.calls", "count", "lower"),
    ("reflexivity.lat_family.certify_attempts", "count", "lower"),
    ("reflexivity.lat_family.certify_ratio", "ratio", "higher"),
    ("reflexivity.certify.s", "s", "lower"),
    ("reflexivity.invariant_family.self_s", "s", "lower"),
    ("reflexivity.alg_solve.s", "s", "lower"),
    ("reflexivity.needed_q_solve.s", "s", "lower"),
    ("reflexivity.check.self_s", "s", "lower"),
    ("reflexivity.invariance_residuals.s", "s", "lower"),
    ("derivation.band.s", "s", "lower"),
    ("derivation.band.blocks", "count", "lower"),
    ("derivation.automorphism.s", "s", "lower"),
    ("derivation.automorphism.calls", "count", "lower"),
    ("derivation.commutator.s", "s", "lower"),
    ("derivation.checks.self_s", "s", "lower"),
    ("triangular.rep.s", "s", "lower"),
    ("triangular.rep.calls", "count", "lower"),
    ("triangular.corner_exp.s", "s", "lower"),
    ("triangular.checks.self_s", "s", "lower"),
    ("scenarios.build.s", "s", "lower"),
    ("harness.run_checks.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *((f"layer.{m}.self_s", "s", "lower") for m in MODULES),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Counts kept by the hooks above (zero when the hook never ran).
COUNTERS = ("core.nullspace.rows", "core.nullspace.max_cols", "core.nullspace.mbytes",
            "core.membership.calls", "derivation.band.blocks")
COUNT_SUFFIXES = (".calls", ".rows", ".max_cols", ".mbytes", ".blocks", ".certify_attempts")


def _value(agg, name):
    attempts = agg["calls"]["reflexivity.certify"]
    special = {
        "reflexivity.lat_family.certify_attempts": attempts,
        "reflexivity.lat_family.certify_ratio":
            agg["calls"]["reflexivity.lat_family"] / attempts if attempts else 0.0,
        "trace.wall_s": agg["wall"],
        "trace.unattributed_s": agg["unattributed"],
        "trace.overhead_s": agg["overhead"],
    }
    if name in special:
        return special[name]
    if name in COUNTERS:
        return agg["counts"][name]
    if name.startswith("layer."):
        return agg["module_self"][name.split(".")[1]]
    span, _, kind = name.rpartition(".")
    return {"s": agg["incl"], "self_s": agg["self"], "calls": agg["calls"]}[kind][span]


def layer_metrics(agg):
    return {name: (float(_value(agg, name)), unit) for name, unit, _ in PER_LAYER}
