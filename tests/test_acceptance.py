"""Acceptance gate: one pass/fail line per criterion.

Each criterion rebuilds its own objects from the bundled problem data (or
an inline spec) so the stated runtime limits measure real work, then prints

    ACCEPTANCE <n>: PASS|FAIL - <detail>

on the terminal (capture suspended) before asserting.
"""

import importlib.util
import json
import pathlib
import random
import sys
import time

import pytest

from helpers import (
    check_box_oracle,
    check_characterization,
    check_component_lemmas,
    check_euler_hilbert,
    check_gcd_free_characterization,
    check_gcd_support_homology,
    check_theta_squared,
    complexes_equal,
)
from latticescarf import cli
from latticescarf.fixtures import fixture_bound, fixture_problem
from latticescarf.homology import betti_scan
from latticescarf.scarf import (
    algebraic_scarf_subcomplex,
    build_generalized_scarf_complex,
    enumerate_scarf_poset,
    minimal_generators,
    strongly_algebraic_subcomplex,
    verify_zero_composition,
)


@pytest.fixture
def announce(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _announce(n, ok, detail):
        line = "ACCEPTANCE %d: %s - %s\n" % (n, "PASS" if ok else "FAIL", detail)
        if capman is not None:
            with capman.global_and_fixture_disabled():
                sys.stdout.write(line)
                sys.stdout.flush()
        else:
            sys.stdout.write(line)

    return _announce


def _sdeg(spec, b):
    return tuple(spec.semigroup.degree_of(b.representative))


def test_acceptance_1_small_betti_table(announce):
    spec = fixture_problem("ex63")
    t0 = time.monotonic()
    T = betti_scan(spec.lattice, 40, functional=spec.functional())
    elapsed = time.monotonic() - t0
    degs = {
        i: {_sdeg(spec, b) for b in T.degrees(i)} for i in T.homological_degrees()
    }
    totals = {i: T.total(i) for i in T.homological_degrees()}
    want_degs = {
        1: {(6, 6), (8, 4), (4, 8), (10, 8)},
        2: {(8, 10), (10, 8), (14, 16), (16, 14), (18, 12)},
        3: {(18, 18), (20, 16)},
    }
    want_totals = {1: 4, 2: 5, 3: 2}
    ok = degs == want_degs and totals == want_totals and elapsed < 60
    announce(
        1,
        ok,
        "ex63 Betti degrees/totals %s in %.2fs (limit 60s)"
        % ("exact" if degs == want_degs and totals == want_totals else "WRONG", elapsed),
    )
    assert degs == want_degs
    assert totals == want_totals
    assert elapsed < 60


def test_acceptance_2_small_generalized_complex(announce):
    spec = fixture_problem("ex63")
    L = spec.lattice
    w = spec.functional()
    t0 = time.monotonic()
    P = enumerate_scarf_poset(L, 40, w)
    X = build_generalized_scarf_complex(P)
    elapsed = time.monotonic() - t0
    ranks = X.ranks()
    deg2 = {_sdeg(spec, c.degree) for c in X.basis[2]} if len(X.basis) > 2 else set()
    deg1 = {_sdeg(spec, c.degree) for c in X.basis[1]}
    zero = verify_zero_composition(X)
    from latticescarf.fibers import enumerate_fiber

    fiberwise = all(
        c.monomials == enumerate_fiber(L, c.degree.representative).members
        for c in X.basis[1]
    )
    ok = (
        ranks == (1, 3, 2)
        and deg2 == {(10, 8), (8, 10)}
        and deg1 == {(6, 6), (8, 4), (4, 8)}
        and zero
        and fiberwise
        and elapsed < 10
    )
    announce(
        2,
        ok,
        "ex63 complex ranks %r, degree-2 basis %s, theta^2=0 %s, %.2fs (limit 10s)"
        % (tuple(ranks), sorted(deg2), zero, elapsed),
    )
    assert ranks == (1, 3, 2)
    assert deg2 == {(10, 8), (8, 10)}
    assert deg1 == {(6, 6), (8, 4), (4, 8)}
    assert zero and fiberwise
    assert elapsed < 10


def test_acceptance_3_large_betti_totals(announce):
    spec = fixture_problem("ex64")
    t0 = time.monotonic()
    T = betti_scan(spec.lattice, 600, functional=spec.functional())
    elapsed = time.monotonic() - t0
    totals = tuple(T.total(i) for i in (1, 2, 3, 4, 5))
    beta_2_182 = sum(
        v
        for (i, b), v in T.entries.items()
        if i == 2 and _sdeg(spec, b) == (182,)
    )
    ok = (
        totals == (7, 19, 25, 16, 4)
        and T.homological_degrees() == [1, 2, 3, 4, 5]
        and beta_2_182 == 2
        and elapsed < 600
    )
    announce(
        3,
        ok,
        "ex64 Betti totals %r, beta_{2,182}=%d, %.2fs (limit 600s)"
        % (totals, beta_2_182, elapsed),
    )
    assert totals == (7, 19, 25, 16, 4)
    assert beta_2_182 == 2
    assert elapsed < 600


def test_acceptance_4_large_scarf_structures(announce):
    spec = fixture_problem("ex64")
    L = spec.lattice
    w = spec.functional()
    bound = fixture_bound("ex64")
    from latticescarf.fibers import enumerate_fiber

    P = enumerate_scarf_poset(L, bound, w)
    X = build_generalized_scarf_complex(P)
    S = algebraic_scarf_subcomplex(X)
    T = betti_scan(L, bound, functional=w)
    ranks = X.ranks()
    three_elt = sorted(
        _sdeg(spec, c.degree)
        for c in P.elements
        if c.cardinality == 3
        and c.monomials == enumerate_fiber(L, c.degree.representative).members
    )
    at182 = sum(1 for c in P.elements if _sdeg(spec, c.degree) == (182,))
    maxcard = P.max_cardinality()
    strongly_same = all(
        complexes_equal(
            strongly_algebraic_subcomplex(X, T, mode=mode), S
        )
        for mode in ("strict", "paper-example")
    )
    ok = (
        ranks == (1, 6, 4)
        and three_elt == [(169,), (196,)]
        and at182 == 2
        and maxcard == 3
        and strongly_same
    )
    announce(
        4,
        ok,
        "ex64 ranks %r, 3-element basic fibers %s, 182 components %d, "
        "max cardinality %d, strongly=scarf %s"
        % (tuple(ranks), [d[0] for d in three_elt], at182, maxcard, strongly_same),
    )
    assert ranks == (1, 6, 4)
    assert three_elt == [(169,), (196,)]
    assert at182 == 2
    assert maxcard == 3
    assert strongly_same


def test_acceptance_5_minimal_resolution_case(announce):
    spec = fixture_problem("ex61")
    L = spec.lattice
    w = spec.functional()
    bound = fixture_bound("ex61")
    t0 = time.monotonic()
    gens = minimal_generators(L, bound, w)
    P = enumerate_scarf_poset(L, bound, w)
    X = build_generalized_scarf_complex(P)
    S = algebraic_scarf_subcomplex(X)
    T = betti_scan(L, bound, functional=w)
    elapsed = time.monotonic() - t0
    gen_degs = sorted(_sdeg(spec, b) for b, _pair in gens)
    want_degs = sorted([(4, 4), (6, 6), (9, 3), (3, 9)])
    scarf_full = complexes_equal(S, X)
    graded = {}
    for i in range(1, len(X.basis)):
        for c in X.basis[i]:
            graded[(i, c.degree.key)] = graded.get((i, c.degree.key), 0) + 1
    scan = {(i, b.key): v for (i, b), v in T.entries.items()}
    graded_match = graded == scan
    ok = (
        len(gens) == 4
        and gen_degs == want_degs
        and scarf_full
        and graded_match
        and elapsed < 30
    )
    announce(
        5,
        ok,
        "ex61 generators %d at %s, scarf=generalized %s, graded ranks=scan %s, "
        "%.2fs (limit 30s)" % (len(gens), gen_degs, scarf_full, graded_match, elapsed),
    )
    assert len(gens) == 4
    assert gen_degs == want_degs
    assert scarf_full
    assert graded_match
    assert elapsed < 30


def test_acceptance_6_property_suites(suite, announce):
    suites = (
        ("a", lambda: check_gcd_support_homology(suite, random.Random(201))),
        ("b", lambda: check_theta_squared(suite, random.Random(201))),
        ("c", lambda: check_gcd_free_characterization(suite)),
        ("d", lambda: check_component_lemmas(suite)),
        ("e", lambda: check_characterization(suite, random.Random(205))),
        ("f", lambda: check_box_oracle(random.Random(206))),
        ("g", lambda: check_euler_hilbert(suite, random.Random(201))),
    )
    results = []
    failures = []
    for letter, fn in suites:
        try:
            detail = fn()
            results.append("%s:ok(%s)" % (letter, detail))
        except AssertionError as e:
            results.append("%s:FAIL" % letter)
            failures.append("%s: %s" % (letter, e))
    announce(6, not failures, "property suites " + ", ".join(results))
    assert not failures, "; ".join(failures)


def _euler_hilbert_oracle():
    """perfbench/oracle.py, loaded by path; it imports nothing from the package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("euler_hilbert_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_acceptance_7_semigroup_7_13(announce, tmp_path, capsys):
    rows = [[7, 8, 9, 10, 11, 12, 13]]
    path = tmp_path / "sg7_13.json"
    path.write_text(json.dumps({"name": "sg7_13", "semigroup": rows}))
    oracle = _euler_hilbert_oracle()
    t0 = time.monotonic()
    reports = {}
    for field in ("q", "fp:32003"):
        code = cli.main(["betti", "--spec", str(path), "--bound", "50", "--field", field])
        out, _err = capsys.readouterr()
        assert code == 0
        reports[field] = json.loads(out)
    elapsed = time.monotonic() - t0
    totals = reports["q"]["result"]["totals"]
    want_totals = {"1": 21, "2": 70, "3": 105, "4": 21}
    same = reports["q"]["result"]["entries"] == reports["fp:32003"]["result"]["entries"]
    mismatches = oracle.euler_hilbert_mismatches(rows, 50, reports["q"])
    ok = totals == want_totals and same and not mismatches and elapsed < 30
    announce(
        7,
        ok,
        "<7,...,13> bound 50 Betti totals %s, Q = GF(32003) %s, %d Euler-Hilbert "
        "mismatches, %.2fs (limit 30s)" % (totals, same, len(mismatches), elapsed),
    )
    assert totals == want_totals
    assert same
    assert mismatches == []
    assert elapsed < 30
