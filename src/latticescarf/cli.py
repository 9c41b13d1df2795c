"""Command line interface: JSON problem specs in, JSON reports out.

A problem spec is a JSON object with exactly one of

    {"name": "...", "semigroup": [[...], ...], "variables": [...]}
    {"name": "...", "lattice":   [[...], ...], "variables": [...]}

where "semigroup" columns generate the grading (the lattice is its
integer kernel) and "lattice" rows are an explicit basis.  Reports are
deterministic JSON on stdout.  Exit codes: 0 success, 1 verification
mismatch, 2 malformed input / unsolvable degree / non-pointed lattice.
"""

import argparse
import functools
import itertools
import json
import operator
import os
import sys

from . import __version__
from .fibers import enumerate_fiber, monomial_str
from .fixtures import EXPECTED, fixture_bound, fixture_problem
from .homology import (
    betti_scan,
    betti_table,
    check_field,
    minimal_betti_degrees,
    scan_degree_classes,
)
from .lattice_core import (
    DegreeClass,
    LatticeBasis,
    NotPointedError,
    SemigroupMatrix,
    lattice_from_semigroup,
    positive_functional,
)
from .linalg import solve_combination
from .scarf import (
    algebraic_scarf_subcomplex,
    basic_components,
    binomials,
    build_generalized_scarf_complex,
    enumerate_scarf_poset,
    indispensable_binomials,
    minimal_generators,
    scarf_poset,
    strongly_algebraic_subcomplex,
    verify_zero_composition,
)


class ParseError(ValueError):
    """Malformed problem spec or command input."""


class ProblemSpec:
    """A parsed problem: lattice, optional semigroup, variable names."""

    def __init__(self, name, lattice, semigroup, variables):
        self.name = name
        self.lattice = lattice
        self.semigroup = semigroup
        self.variables = tuple(variables)

    def functional(self):
        """Grading functional for scan bounds: semigroup column sums when
        they are strictly positive, else a computed positive functional."""
        if self.semigroup is not None:
            w = self.semigroup.column_sums()
            if all(x >= 1 for x in w):
                return w
        return positive_functional(self.lattice)

    def degree_view(self, b):
        """Render a degree class for a report."""
        rep = list(b.representative)
        out = {"representative": rep}
        if self.semigroup is not None:
            out["semigroup_degree"] = list(self.semigroup.degree_of(b.representative))
        return out

    def monomials_view(self, ms):
        return [monomial_str(m, self.variables) for m in ms]


def _int_matrix(value, field):
    """value, if it has a matrix's JSON shape (a nonempty list of nonempty
    lists); SemigroupMatrix and LatticeBasis check its entries and row
    lengths."""
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(r, list) and r for r in value)
    ):
        raise ParseError("%s must be a nonempty 2D integer array" % field)
    return value


def problem_from_dict(d):
    if not isinstance(d, dict):
        raise ParseError("problem spec must be a JSON object")
    unknown = set(d) - {"name", "semigroup", "lattice", "variables"}
    if unknown:
        raise ParseError("unknown fields in problem spec: %s" % ", ".join(sorted(unknown)))
    has_sg = "semigroup" in d
    has_lat = "lattice" in d
    if has_sg == has_lat:
        raise ParseError("exactly one of 'semigroup' or 'lattice' is required")
    if has_sg:
        mat = _int_matrix(d["semigroup"], "semigroup")
        try:
            A = SemigroupMatrix(mat)
        except ValueError as e:
            raise ParseError("semigroup: %s" % e) from e
        lattice = lattice_from_semigroup(A)
        semigroup = A
        n = A.n
    else:
        mat = _int_matrix(d["lattice"], "lattice")
        try:
            lattice = LatticeBasis(mat)
        except NotPointedError:
            raise
        except ValueError as e:
            raise ParseError("lattice: %s" % e) from e
        semigroup = None
        n = lattice.n
    variables = d.get("variables")
    if variables is None:
        variables = ["x%d" % (i + 1) for i in range(n)]
    if (
        not isinstance(variables, list)
        or len(variables) != n
        or len(set(variables)) != n
        or not all(isinstance(v, str) and v for v in variables)
    ):
        raise ParseError("variables must be %d distinct nonempty names" % n)
    name = d.get("name")
    if name is None:
        name = "problem"
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    return ProblemSpec(name, lattice, semigroup, variables)


def parse_spec(path):
    """Load and validate a problem spec file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ParseError("cannot read %s: %s" % (path, e)) from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ParseError("%s is not valid JSON: %s" % (path, e)) from e
    spec = problem_from_dict(data)
    if spec.name == "problem" and "name" not in data:
        spec.name = os.path.splitext(os.path.basename(path))[0]
    return spec


def _parse_degree(spec, text):
    """A --degree argument: a semigroup degree when the problem has a
    semigroup (solved exactly for a representative), else a class
    representative of length n."""
    try:
        vec = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ParseError("--degree expects comma-separated integers") from None
    if spec.semigroup is None:
        if len(vec) != spec.lattice.n:
            raise ParseError(
                "--degree needs %d components for this lattice" % spec.lattice.n
            )
        return vec
    A = spec.semigroup
    if len(vec) != A.d:
        raise ParseError("--degree needs %d components for this semigroup" % A.d)
    cols = [tuple(r[j] for r in A.rows) for j in range(A.n)]
    u = solve_combination(cols, vec)
    if u is None:
        raise ParseError("degree %s is not in the grading group image" % (text,))
    return u


class Report:
    """A command report: provenance plus a result payload."""

    FORMAT = 1

    def __init__(self, spec, command, provenance, result):
        self.spec = spec
        self.command = command
        self.provenance = provenance
        self.result = result

    def to_json(self):
        prov = {"version": __version__, "format": self.FORMAT}
        prov.update(self.provenance)
        report = {
            "problem": self.spec.name,
            "command": self.command,
            "provenance": prov,
            "result": self.result,
        }
        return json.dumps(report, indent=2, sort_keys=True)


def _betti_payload(spec, T):
    entries, indices = [], T.homological_degrees()
    for i in indices:
        for b in T.degrees(i):
            entries.append(
                {
                    "i": i,
                    "degree": spec.degree_view(b),
                    "beta": T.get(i, b),
                }
            )
    return {
        "entries": entries,
        "totals": {str(i): T.total(i) for i in indices},
        "minimal_degrees": {
            str(i): [spec.degree_view(b) for b in minimal_betti_degrees(T, i)]
            for i in indices
        },
    }


def _complex_payload(spec, X):
    basis = []
    for i, bs in enumerate(X.basis):
        basis.append(
            [
                {
                    "degree": spec.degree_view(c.degree),
                    "monomials": spec.monomials_view(c.monomials),
                }
                for c in bs
            ]
        )
    diffs = []
    for i in range(1, len(X.basis)):
        entries = []
        for (r, c), terms in sorted(X.differentials[i].items()):
            entries.append(
                {
                    "row": r,
                    "col": c,
                    "terms": [
                        ("+" if s > 0 else "-") + monomial_str(e, spec.variables)
                        for s, e in terms
                    ],
                }
            )
        diffs.append({"i": i, "entries": entries})
    return {
        "ranks": list(X.ranks()),
        "basis": basis,
        "differentials": diffs,
        "zero_composition": verify_zero_composition(X),
    }


def _binomials_payload(spec, pairs):
    out = []
    for b, (m1, m2) in pairs:
        out.append(
            {
                "degree": spec.degree_view(b),
                "binomial": "%s - %s"
                % (monomial_str(m1, spec.variables), monomial_str(m2, spec.variables)),
                "exponents": [list(m1), list(m2)],
            }
        )
    return out


def _dot_label(text):
    """text as the body of a quoted DOT string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(fiber, variables, kind="gcd"):
    """DOT source for the 1-skeleton of a fiber's complex, as (dot, nodes,
    edges) with its node and edge counts.

    kind="gcd": vertices are the fiber monomials, edges join pairs with a
    common divisor, that is pairs whose support masks (Fiber.masks) meet.
    Each member's row of edges to later members is read from a selector
    built once per distinct mask and written with one join.
    kind="support": vertices are the variables that occur, edges join
    variables appearing in a common monomial support.  Labels escape '"'
    and '\\'.
    """
    if not fiber.members:
        raise ValueError("empty fiber")
    lines = ["graph fiber {"]
    if kind == "gcd":
        ms = fiber.members
        for k, m in enumerate(ms):
            label = _dot_label(monomial_str(m, variables))
            lines.append('  n%d [label="%s"];' % (k, label))
        nodes = len(ms)
        masks = fiber.masks
        tails = ["%d;" % b for b in range(nodes)]
        # sel flags the later members whose masks meet row a's; built over
        # masks[a0 + 1:] at a mask's first row a0, later rows slice it
        sels = {}
        edges = 0
        for a, mask in enumerate(masks):
            if mask in sels:
                a0, sel = sels[mask]
                sel = sel[a - a0 :]
            else:
                meets = map(operator.and_, itertools.repeat(mask), masks[a + 1 :])
                sel = bytes(map(bool, meets))
                sels[mask] = a, sel
            row = tails[a + 1 :]
            if 0 in sel:
                row = list(itertools.compress(row, sel))
            if row:
                head = "  n%d -- n" % a
                lines.append(head + ("\n" + head).join(row))
                edges += len(row)
    elif kind == "support":
        sups = [[i for i, x in enumerate(m) if x > 0] for m in fiber.members]
        for i in sorted(set().union(*sups)):
            lines.append('  v%d [label="%s"];' % (i, _dot_label(variables[i])))
        nodes = len(lines) - 1
        pairs = {p for s in sups for p in itertools.combinations(s, 2)}
        lines.extend(sorted("  v%d -- v%d;" % p for p in pairs))
        edges = len(pairs)
    else:
        raise ParseError("--kind must be 'gcd' or 'support'")
    lines.append("}")
    return "\n".join(lines) + "\n", nodes, edges


def run_command(spec, command, options):
    """Execute one command against a parsed problem; returns a Report."""
    L = spec.lattice
    w = spec.functional()
    field = options.get("field", "q")
    bound, degree = options.get("bound"), options.get("degree")
    # a command that scans records its bound and functional
    prov = {} if bound is None else {"bound": bound, "functional": list(w)}
    if command == "fiber":
        u = _parse_degree(spec, degree)
        fib = enumerate_fiber(L, u)
        view = DegreeClass(L, fib.members[0]) if fib.members else fib.degree
        result = {
            "degree": spec.degree_view(view),
            "count": len(fib),
            "monomials": spec.monomials_view(fib.members),
            "exponents": [list(m) for m in fib.members],
        }
    elif command == "betti":
        T = betti_scan(L, bound, field=field, functional=w)
        result = _betti_payload(spec, T)
        prov["field"] = str(field)
    elif command == "components" and bound is None:
        if degree is None:
            raise ParseError("components needs --degree or --bound")
        fib = enumerate_fiber(L, _parse_degree(spec, degree))
        result = {
            "degree": spec.degree_view(fib.degree),
            "components": [
                {
                    "monomials": spec.monomials_view(c.monomials),
                    "witness": [list(v) for v in c.witness],
                }
                for c in basic_components(fib)
            ],
        }
    elif command == "components":
        if degree is not None:
            raise ParseError("components takes one of --degree or --bound, not both")
        P = enumerate_scarf_poset(L, bound, w)
        counts = {}
        for c in P.elements:
            counts[c.cardinality] = counts.get(c.cardinality, 0) + 1
        result = {
            "count": len(P.elements),
            "by_cardinality": {str(k): v for k, v in sorted(counts.items())},
            "components": [
                {
                    "degree": spec.degree_view(c.degree),
                    "monomials": spec.monomials_view(c.monomials),
                }
                for c in P.elements
            ],
        }
    elif command == "complex":
        kind = options.get("kind", "generalized")
        kind = {"strongly": "strong"}.get(kind, kind)
        if kind not in ("generalized", "scarf", "strong"):
            raise ParseError("--kind must be generalized, scarf, or strong")
        mode = options.get("mode", "strict")
        mode = {"paper": "paper-example"}.get(mode, mode)
        if mode not in ("strict", "paper-example"):
            raise ParseError("--mode must be strict or paper (paper-example)")
        atlas = scan_degree_classes(L, bound, w)
        X = build_generalized_scarf_complex(scarf_poset(atlas))
        prov["kind"] = kind
        if kind == "scarf":
            X = algebraic_scarf_subcomplex(X)
        elif kind == "strong":
            T = betti_table(atlas, field)
            X = strongly_algebraic_subcomplex(X, T, mode=mode)
            prov["mode"] = mode
            prov["field"] = str(field)
        result = _complex_payload(spec, X)
    elif command in ("indispensable", "generators"):
        read = indispensable_binomials if command == "indispensable" else minimal_generators
        result = {"binomials": _binomials_payload(spec, read(L, bound, w))}
    elif command == "export-dot":
        kind = options.get("kind", "gcd")
        if kind not in ("gcd", "support"):
            raise ParseError("--kind must be 'gcd' or 'support'")
        u = _parse_degree(spec, degree)
        fib = enumerate_fiber(L, u)
        if not fib.members:
            raise ParseError("empty fiber: no monomials in this degree class")
        dot, nodes, edgecount = export_dot(fib, spec.variables, kind)
        out = options.get("out")
        if out and out != "-":
            try:
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(dot)
            except OSError as e:
                raise ParseError("cannot write %s: %s" % (out, e)) from e
        result = {
            "degree": spec.degree_view(DegreeClass(L, fib.members[0])),
            "kind": kind,
            "nodes": nodes,
            "edges": edgecount,
            "out": out,
            "dot": None if out and out != "-" else dot,
        }
        prov["kind"] = kind
    else:
        raise ParseError("unknown command %r" % command)
    return Report(spec, command, prov, result)


# --------------------------------------------------------------------------
# verify: recompute the bundled problems and compare with expectations.


def _verify_fixture(name, bound=None):
    spec = fixture_problem(name)
    exp = EXPECTED[name]
    if bound is None:
        bound = fixture_bound(name)
    L = spec.lattice
    w = spec.functional()
    A = spec.semigroup

    def sdeg(b):
        return list(A.degree_of(b.representative))

    def sdegs(classes):
        return sorted(sdeg(b) for b in classes)

    atlas = scan_degree_classes(L, bound, w)
    T = betti_table(atlas)
    P = scarf_poset(atlas)
    gens, indispensables = binomials(atlas)
    X = build_generalized_scarf_complex(P)
    S = algebraic_scarf_subcomplex(X)

    def basis_degrees(Y, i):
        return sdegs(c.degree for c in Y.basis[i]) if len(Y.basis) > i else []

    @functools.cache  # one build per mode, for its ranks and its match with S
    def strongly(mode):
        return strongly_algebraic_subcomplex(X, T, mode=mode)

    def graded_ranks_match_scan():
        for i in range(1, len(X.basis)):
            lhs = {}
            for c in X.basis[i]:
                lhs[c.degree.key] = lhs.get(c.degree.key, 0) + 1
            rhs = {}
            for (j, b), v in T.entries.items():
                if j == i:
                    rhs[b.key] = rhs.get(b.key, 0) + v
            if lhs != rhs:
                return False
        return True

    # Every check verify knows, in report order: name -> observed value.
    observe = {
        "betti_totals": lambda: {str(i): T.total(i) for i in T.homological_degrees()},
        "betti_degrees": lambda: {
            str(i): sdegs(T.degrees(i)) for i in T.homological_degrees()
        },
        "beta_2_at_182": lambda: sum(
            v for (i, b), v in T.entries.items() if i == 2 and sdeg(b) == [182]
        ),
        "complex_ranks": lambda: list(X.ranks()),
        "zero_composition": lambda: verify_zero_composition(X),
        "degree2_basis_degrees": lambda: basis_degrees(X, 2),
        "scarf_ranks": lambda: list(S.ranks()),
        "scarf_equals_generalized": lambda: S.basis == X.basis,
        "strongly_ranks[strict]": lambda: list(strongly("strict").ranks()),
        "strongly_equals_scarf[strict]": lambda: strongly("strict").basis == S.basis,
        "strongly_ranks[paper-example]": lambda: list(strongly("paper-example").ranks()),
        "strongly_equals_scarf[paper-example]": lambda: (
            strongly("paper-example").basis == S.basis
        ),
        "graded_ranks_match_scan": graded_ranks_match_scan,
        # S keeps exactly the components that are whole fibers
        "three_element_basic_fibers": lambda: basis_degrees(S, 2),
        "components_at_182": lambda: sum(
            1 for c in P.elements if c.cardinality == 3 and sdeg(c.degree) == [182]
        ),
        "max_component_cardinality": P.max_cardinality,
        "indispensable_degrees": lambda: sdegs(b for b, _ in indispensables),
        "generator_degrees": lambda: sdegs(b for b, _ in gens),
        "generator_count": lambda: len(gens),
    }
    checks = []
    for label, observed in observe.items():
        if label in exp:
            got = observed()
            checks.append(
                {"name": label, "expected": exp[label], "got": got, "ok": exp[label] == got}
            )

    ok = all(c["ok"] for c in checks)
    prov = {"bound": bound, "functional": list(w)}
    report = Report(spec, "verify", prov, {"fixture": name, "ok": ok, "checks": checks})
    return report, ok


_DEGREE_HELP = (
    "comma-separated integers: a semigroup degree, or a class representative "
    "of a lattice spec.  Write a negative first value as --degree=-1,3,0: "
    "after a space, argparse takes -1,3,0 for an option."
)


@functools.cache
def _build_parser():
    """The argument parser, built on the first main call and reused:
    parse_args leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="latticescarf",
        description="Fibers, Betti numbers and Scarf complexes of pointed lattice ideals.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_source(sp, need_spec=True):
        g = sp.add_mutually_exclusive_group(required=need_spec)
        g.add_argument("--spec", help="path to a JSON problem spec")
        g.add_argument("--fixture", help="name of a bundled problem")

    sp = sub.add_parser("fiber", help="enumerate the monomials of one degree")
    add_source(sp)
    sp.add_argument("--degree", required=True, help=_DEGREE_HELP)

    sp = sub.add_parser("betti", help="scan Betti numbers up to a bound")
    add_source(sp)
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--field")

    sp = sub.add_parser("components", help="basic fiber components")
    add_source(sp)
    sp.add_argument("--degree", help=_DEGREE_HELP)
    sp.add_argument("--bound", type=int)

    sp = sub.add_parser("complex", help="build a Scarf chain complex")
    add_source(sp)
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--kind")
    sp.add_argument("--mode")
    sp.add_argument("--field")

    sp = sub.add_parser("indispensable", help="indispensable binomials")
    add_source(sp)
    sp.add_argument("--bound", type=int, required=True)

    sp = sub.add_parser("generators", help="minimal binomial generators")
    add_source(sp)
    sp.add_argument("--bound", type=int, required=True)

    sp = sub.add_parser("verify", help="recompute a bundled problem and compare")
    sp.add_argument("--fixture", required=True)
    sp.add_argument("--bound", type=int)

    sp = sub.add_parser("export-dot", help="DOT for a fiber's 1-skeleton")
    add_source(sp)
    sp.add_argument("--degree", required=True, help=_DEGREE_HELP)
    sp.add_argument("--kind")
    sp.add_argument("--out")

    return p


def _parse_field(text):
    if text in ("q", "Q"):
        return "q"
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise ParseError("--field fp:P needs an integer P") from None
        try:
            check_field(p)
        except ValueError:
            raise ParseError("--field fp:P needs a prime P, not %d" % p) from None
        return p
    raise ParseError("--field must be 'q' or 'fp:P'")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "bound", None) is not None and args.bound < 0:
            raise ParseError("--bound must be nonnegative, not %d" % args.bound)
        if args.command == "verify":
            report, ok = _verify_fixture(args.fixture, args.bound)
            print(report.to_json())
            return 0 if ok else 1
        spec = fixture_problem(args.fixture) if args.fixture else parse_spec(args.spec)
        options = {}
        for key in ("degree", "bound", "kind", "mode", "out"):
            if hasattr(args, key) and getattr(args, key) is not None:
                options[key] = getattr(args, key)
        if getattr(args, "field", None) is not None:
            options["field"] = _parse_field(args.field)
        report = run_command(spec, args.command, options)
        print(report.to_json())
        return 0
    except ValueError as e:
        # ValueError means bad input; broken invariants raise RuntimeError,
        # and any other error is a fault of the program, not of the input.
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
