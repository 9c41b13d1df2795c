"""Spans around the package's own calls, for traced runs.

`install(tracer)` replaces each function in TARGETS, in every latticescarf
module that has bound it, by a wrapper that records a span around the
call; the returned function puts the originals back.  A traced run is
then the very same `cli.main(argv)` or random-lattice operation as a
plain one, so the spans follow the program's own calls in its own order,
and its outputs are checked against the same digests.
"""

import sys
import time
from array import array
from collections import Counter


class Tracer:
    """Spans (name, start, end, parent index, operation index) of one
    pass, in columns, and counters filled by the targets' hooks."""

    def __init__(self):
        self.names = []
        self.name_index = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_index = -1
        self.counts = Counter()
        self.fibers_seen = {}
        self.missing_targets = []

    def begin_op(self, index):
        self.op_index = index
        self.fibers_seen = {}

    def intern(self, name):
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def open(self, name_id):
        k = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_index)
        self.end.append(0.0)
        self.stack.append(k)
        self.start.append(time.perf_counter())
        return k

    def close(self, k):
        self.end[k] = time.perf_counter()
        self.stack.pop()

    def __len__(self):
        return len(self.start)

    def self_times(self):
        """Counter of self time (duration minus the direct children's)
        by (span name, operation index)."""
        child = [0.0] * len(self.start)
        for k, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        out = Counter()
        for k in range(len(self.start)):
            out[self.names[self.name[k]], self.op[k]] += self.end[k] - self.start[k] - child[k]
        return out

    def max_duration(self, name, scale):
        """The longest span of that name, its duration multiplied by
        scale[operation index]."""
        i = self.name_index.get(name)
        return max(
            (
                (self.end[k] - self.start[k]) * scale[self.op[k]]
                for k in range(len(self.start))
                if self.name[k] == i
            ),
            default=0.0,
        )

    def columns(self):
        """The spans as JSON-ready columns, times relative to the first."""
        t0 = self.start[0] if self.start else 0.0
        return {
            "names": self.names,
            "name": list(self.name),
            "start": [round(t - t0, 7) for t in self.start],
            "end": [round(t - t0, 7) for t in self.end],
            "parent": list(self.parent),
            "op": list(self.op),
        }


# ---------------------------------------------------------------------------
# Counting hooks: (tracer, result) -> None, run inside the span.


def _count_fiber(tr, fib):
    c = tr.counts
    c["fibers.calls"] += 1
    if id(fib) in tr.fibers_seen:
        return  # served by the lattice's fiber cache
    tr.fibers_seen[id(fib)] = fib
    c["fibers.enumerated"] += 1
    c["fibers.monomials"] += len(fib)
    c["fibers.multi"] += len(fib) >= 2
    c["fibers.max_size"] = max(c["fibers.max_size"], len(fib))


def _count_classes(tr, classes):
    tr.counts["homology.classes"] += len(classes)


def _count_facets(tr, K):
    tr.counts["homology.gcd_facets"] += len(K.facets)


def _count_nonzero(tr, dims):
    tr.counts["homology.rank_calls"] += 1
    tr.counts["homology.nonzero"] += any(d for j, d in dims.items() if j >= 0)


def _count_components(tr, comps):
    tr.counts["scarf.components"] += len(comps)


def _count_pairs(tr, P):
    tr.counts["scarf.poset_pairs"] += len(P.leq)


# (module, function or Class.method, span name, counting hook).  A span's
# self time is its layer's.  The cli targets hold everything the command
# line does besides the computation: reading specs and degrees
# (cli.parse), and building, serialising and drawing reports (cli.render).
TARGETS = (
    ("lattice_core", "LatticeBasis.__init__", "lattice_core.build", None),
    ("lattice_core", "positive_functional", "lattice_core.functional", None),
    ("cli", "ProblemSpec.functional", "lattice_core.functional", None),
    ("fibers", "enumerate_fiber", "fibers.enumerate", _count_fiber),
    ("homology", "scan_degree_classes", "homology.scan", _count_classes),
    ("homology", "gcd_complex", "homology.gcd_complex", _count_facets),
    ("homology", "reduced_homology_dims", "homology.reduced_homology", _count_nonzero),
    ("homology", "betti_scan", "homology.betti", None),
    ("homology", "minimal_betti_degrees", "homology.minimal", None),
    ("homology", "connected_components", "homology.components", None),
    ("scarf", "basic_components", "scarf.components", _count_components),
    ("scarf", "enumerate_scarf_poset", "scarf.poset", _count_pairs),
    ("scarf", "build_generalized_scarf_complex", "scarf.assembly", None),
    ("scarf", "algebraic_scarf_subcomplex", "scarf.restrict", None),
    ("scarf", "strongly_algebraic_subcomplex", "scarf.restrict", None),
    ("scarf", "verify_zero_composition", "scarf.theta_check", None),
    ("scarf", "minimal_generators", "scarf.binomials", None),
    ("scarf", "indispensable_binomials", "scarf.binomials", None),
    ("cli", "parse_spec", "cli.parse", None),
    ("cli", "problem_from_dict", "cli.parse", None),
    ("cli", "_parse_degree", "cli.parse", None),
    ("cli", "run_command", "cli.render", None),
    ("cli", "_verify_fixture", "cli.render", None),
    ("cli", "Report.to_json", "cli.render", None),
    ("cli", "export_dot", "cli.render", None),
)
TIMED_LAYERS = sorted({span for _m, _f, span, _h in TARGETS})


def _wrapper(tracer, span, hook, fn):
    name_id = tracer.intern(span)

    def traced(*args, **kwargs):
        k = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, result)
            return result
        finally:
            tracer.close(k)

    return traced


def install(tracer):
    """Wrap every target; returns the function that undoes it.  A target
    the package does not have goes to tracer.missing_targets and only
    leaves its layer's figures at 0."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "latticescarf" or name.startswith("latticescarf."))]
    undo, missing = [], []
    for module_name, attr, span, hook in TARGETS:
        module = sys.modules.get("latticescarf." + module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = vars(owner).get(method) if owner is not None else None
        if fn is None:
            missing.append("%s.%s" % (module_name, attr))
            continue
        wrapped = _wrapper(tracer, span, hook, fn)
        # A method lives on its class; a function is rebound wherever the
        # package bound it, so callers that imported it by name see it too.
        holders = [owner] if owner_name else [m for m in modules if vars(m).get(method) is fn]
        for holder in holders:
            setattr(holder, method, wrapped)
            undo.append((holder, method, fn))

    def restore():
        for holder, method, fn in reversed(undo):
            setattr(holder, method, fn)

    tracer.missing_targets = missing
    return restore
