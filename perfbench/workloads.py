"""The four workloads: which operations a pass runs, how the seed picks
and orders them, and how each operation's output is checked.

Setup functions import the package inside their bodies, because the
harness re-imports it for every timed set-up repetition.
"""

import hashlib
import json
import os
import random
import time
from collections import Counter

from oracle import euler_hilbert_mismatches

HERE = os.path.dirname(os.path.abspath(__file__))

FIXTURES = ("ex61", "ex63", "ex64")
FP_FIELD = 32003

# Numerical semigroups and their scan bounds.  <7,...,13> stops at 38:
# at 39 one pass of betti costs 8 s at the seed commit, at 40 about 15 s
# (two classes of 6.9 s and 5.8 s of homology), and at 50 it does not end.
SEMIGROUPS = {
    "sg3_5_7_11_13": (40, 50, 60, 70),
    "sg5_6_7_8_9_11": (30, 32, 34, 38),
    "sg7_13": (34, 36, 37, 38),
}

# Query degrees, ordered by fiber size: ex63's have 270-287 monomials,
# ex64's 300-315.  export-dot --kind gcd is quadratic in the fiber size
# (ex64 at degree 1200: 9.1 s and 29 MB at the seed commit), so the sizes
# are held in a narrow band.  A seed takes one degree from each of
# QUERY_STRATA strata of each list.
QUERY_DEGREES = {
    "ex63": [[68, 76], [73, 80], [70, 74], [75, 78], [72, 72], [77, 76],
             [78, 66], [74, 70], [79, 74], [76, 68], [81, 72]],
    "ex64": [[d] for d in range(795, 806)],
}
QUERY_STRATA = 6
QUERY_COMMANDS = (
    ("fiber", {}),
    ("components", {}),
    ("export-dot", {"kind": "gcd"}),
    ("export-dot", {"kind": "support"}),
)

# Random lattices.  The pool is RANDOM_POOL rejection-sampled lattices;
# expected.json records, for each with at most RANDOM_RECORD_CLASSES
# scanned classes, its output digest and its operation time (scaled, see
# run.py) at the seed commit.  A seed's batch is one lattice from each of
# RANDOM_STRATA strata of the pool lattices with at most
# RANDOM_BATCH_CLASSES classes, ordered by recorded time, plus the tail
# lattice, the one with the most classes up to RANDOM_TAIL_CLASSES, in
# every batch.  Stratifying keeps seed-to-seed spread small; the fixed
# tail keeps a heavy tail (about 23 times the median operation) in every
# pass.  Bigger pool lattices would make one pass longer than a run.
RANDOM_POOL = 96
RANDOM_RECORD_CLASSES = 15000
RANDOM_STRATA = 31
RANDOM_BATCH_CLASSES = 3500
RANDOM_TAIL_CLASSES = 12000


class Op:
    """One operation of a pass.

    A CLI operation runs `latticescarf.cli.main(argv)`; a lattice
    operation runs the random-lattice pipeline on `rows`.
    """

    def __init__(self, op_id, family, problem, command=None, fixture=None,
                 spec_path=None, options=None, rows=None, semigroup=None):
        self.id = op_id
        self.family = family
        self.problem = problem
        self.command = command
        self.fixture = fixture
        self.spec_path = spec_path
        self.options = options or {}
        self.rows = rows
        self.semigroup = semigroup
        self.argv = self._argv() if command else None

    def _argv(self):
        argv = [self.command]
        argv += ["--fixture", self.fixture] if self.fixture else ["--spec", self.spec_path]
        for key in ("degree", "bound", "kind", "mode"):
            if key in self.options:
                argv += ["--" + key, str(self.options[key])]
        if self.options.get("field", "q") != "q":
            argv += ["--field", "fp:%d" % self.options["field"]]
        return argv


def _fixture_ops(name, bound, semigroup):
    def op(label, family, command, **options):
        return Op("fixtures/%s/%s" % (name, label), family, name, command,
                  fixture=name, options=options, semigroup=semigroup)

    ops = [
        op("betti-q", "betti", "betti", bound=bound),
        op("betti-fp", "betti", "betti", bound=bound, field=FP_FIELD),
        op("components", "components", "components", bound=bound),
        op("complex-generalized", "complex", "complex", bound=bound, kind="generalized"),
        op("complex-scarf", "complex", "complex", bound=bound, kind="scarf"),
        op("complex-strong-strict", "complex", "complex", bound=bound, kind="strong", mode="strict"),
        op("complex-strong-paper", "complex", "complex", bound=bound, kind="strong", mode="paper"),
        op("indispensable", "binomials", "indispensable", bound=bound),
        op("generators", "binomials", "generators", bound=bound),
    ]
    ops.append(Op("fixtures/%s/verify" % name, "verify", name, "verify", fixture=name))
    return ops


def setup_fixtures(seed, expected, stats):
    from latticescarf.fixtures import BUNDLED, fixture_bound, fixture_problem

    ops = []
    for name in FIXTURES:
        spec = fixture_problem(name)
        spec.functional()
        stats["attempts"] += 1
        stats["accepted"] += 1
        ops += _fixture_ops(name, fixture_bound(name), BUNDLED[name]["semigroup"])
    return ops


def setup_semigroups(seed, expected, stats):
    from latticescarf.cli import parse_spec

    ops = []
    for name, bounds in SEMIGROUPS.items():
        path = os.path.join(HERE, "specs", name + ".json")
        spec = parse_spec(path)
        spec.functional()
        stats["attempts"] += 1
        stats["accepted"] += 1
        rows = [list(r) for r in spec.semigroup.rows]
        for b in bounds:
            ops.append(Op("semigroups/%s/%d/betti" % (name, b), "betti", name, "betti",
                          spec_path=path, options={"bound": b}, semigroup=rows))
            ops.append(Op("semigroups/%s/%d/complex-strong" % (name, b), "complex", name,
                          "complex", spec_path=path,
                          options={"bound": b, "kind": "strong", "mode": "strict"}))
    return ops


def query_ops(name, degree):
    text = ",".join(str(x) for x in degree)
    ops = []
    for command, extra in QUERY_COMMANDS:
        label = command + ("-" + extra["kind"] if extra else "")
        ops.append(Op("queries/%s/%s/%s" % (name, text, label), "query", name, command,
                      fixture=name, options=dict(extra, degree=text)))
    return ops


def strata(items, k):
    """items split into k contiguous groups whose sizes differ by at most 1."""
    return [items[len(items) * s // k: len(items) * (s + 1) // k] for s in range(k)]


def setup_queries(seed, expected, stats):
    from latticescarf.fixtures import fixture_problem
    from latticescarf.linalg import solve_combination

    rng = random.Random("queries:%d" % seed)
    ops = []
    for name, degrees in QUERY_DEGREES.items():
        spec = fixture_problem(name)
        spec.functional()
        stats["attempts"] += 1
        stats["accepted"] += 1
        A = spec.semigroup
        cols = [tuple(r[j] for r in A.rows) for j in range(A.n)]
        for group in strata(degrees, QUERY_STRATA):
            degree = rng.choice(group)
            if solve_combination(cols, tuple(degree)) is None:
                raise ValueError("query degree %r is not in the grading group" % (degree,))
            ops += query_ops(name, degree)
    return ops


def sample_pool_lattice(index, stats):
    """Rejection-sample pool lattice `index`: a 2 x 4 or 2 x 5 basis with
    entries in [-3, 3] that is independent and pointed."""
    from latticescarf.lattice_core import LatticeBasis

    rng = random.Random("latticescarf-pool-%d" % index)
    n = 4 if index % 2 == 0 else 5
    while True:
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2)]
        stats["attempts"] += 1
        try:
            L = LatticeBasis(rows)
        except ValueError:
            continue
        stats["accepted"] += 1
        return L


def random_batch(seed, pool):
    """Pool indices of one seed's batch."""
    rng = random.Random("random:%d" % seed)
    eligible = sorted((p["seconds"], p["index"]) for p in pool if p["classes"] <= RANDOM_BATCH_CLASSES)
    tail = max((p["classes"], p["index"]) for p in pool if p["classes"] <= RANDOM_TAIL_CLASSES)
    return [tail[1]] + [rng.choice(group)[1] for group in strata(eligible, RANDOM_STRATA)]


def random_op(index, L):
    return Op("random/pool-%d" % index, "lattice", "pool-%d" % index, rows=L.rows)


def setup_random(seed, expected, stats):
    from latticescarf.lattice_core import positive_functional

    ops = []
    for index in random_batch(seed, expected["random_pool"]):
        L = sample_pool_lattice(index, stats)
        positive_functional(L)
        ops.append(random_op(index, L))
    return ops


STRONG_MODES = ("strict", "paper-example")


def scan_bound(L, w):
    """The random-lattice scan bound: every basis row's own fiber, plus
    two steps of the largest weight (the property suites use the same)."""
    tops = [sum(wi * x for wi, x in zip(w, row) if x > 0) for row in L.rows]
    return max(tops, default=0) + 2 * max(w)


def lattice_operation(rows, family_s):
    """One random-lattice operation: build the lattice, then poset,
    complex, Betti scan, both strong subcomplexes, theta^2 on all four
    complexes, generators and indispensables.  Adds each call's wall time
    to its command family in family_s.  Returns the summary whose digest
    is checked, and the theta^2 results.

    Package functions are looked up on their modules at call time, so a
    traced run sees them wrapped."""
    from latticescarf import homology, lattice_core, scarf

    def timed(family, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            family_s[family] += time.perf_counter() - t0

    L = lattice_core.LatticeBasis(rows)
    w = lattice_core.positive_functional(L)
    bound = scan_bound(L, w)
    P = timed("components", scarf.enumerate_scarf_poset, L, bound, w)
    X = timed("complex", scarf.build_generalized_scarf_complex, P)
    S = timed("complex", scarf.algebraic_scarf_subcomplex, X)
    T = timed("betti", homology.betti_scan, L, bound, "q", w)
    strong = [timed("complex", scarf.strongly_algebraic_subcomplex, X, T, mode) for mode in STRONG_MODES]
    zero = [timed("complex", scarf.verify_zero_composition, Y) for Y in [X, S] + strong]
    gens = timed("binomials", scarf.minimal_generators, L, bound, w)
    indis = timed("binomials", scarf.indispensable_binomials, L, bound, w)
    summary = {
        "bound": bound,
        "betti_totals": {str(i): T.total(i) for i in T.homological_degrees()},
        "ranks": [list(Y.ranks()) for Y in [X, S] + strong],
        "generators": len(gens),
        "indispensable": len(indis),
    }
    return summary, zero


SETUP = {
    "fixtures": setup_fixtures,
    "semigroups": setup_semigroups,
    "queries": setup_queries,
    "random": setup_random,
}


def build(workload, seed, expected):
    """The workload's operations in this seed's order, and set-up counts."""
    stats = Counter()
    ops = SETUP[workload](seed, expected, stats)
    random.Random("order:%s:%d" % (workload, seed)).shuffle(ops)
    return ops, stats


# ---------------------------------------------------------------------------
# Output checks, run outside the timed region.


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def summary_text(summary):
    return json.dumps(summary, sort_keys=True)


def check(op, output, expected, oracle_cache):
    """None when the output is right, else a one-line reason.  A betti
    report meets the Euler-Hilbert oracle before its digest is compared,
    so a failure tells whether the numbers or only the bytes changed."""
    want = expected["ops"].get(op.id)
    if want is None:
        return "no recorded digest"
    if op.command is None:
        summary, zero = output
        if not all(zero):
            return "theta^2 != 0 on %s" % ["G", "Scarf", "strong-strict", "strong-paper"][zero.index(False)]
        return None if digest(summary_text(summary)) == want["sha256"] else "summary digest mismatch"
    rc, text = output
    if rc != 0:
        return "exit code %r" % (rc,)
    got = digest(text)
    reasons = []
    if op.command == "betti":
        if got not in oracle_cache:
            report = json.loads(text)
            oracle_cache[got] = euler_hilbert_mismatches(op.semigroup, op.options["bound"], report)
        if oracle_cache[got]:
            reasons.append("Euler-Hilbert identity fails at %r" % (oracle_cache[got][:3],))
    if got != want["sha256"]:
        reasons.append("stdout digest mismatch")
    if op.command == "verify" and json.loads(text)["result"]["ok"] is not True:
        reasons.append("verify did not report ok")
    return "; ".join(reasons) or None
