import collections
import gc
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

import latticescarf

from helpers import (
    SimplicialComplex,
    basic_components_oracle,
    benchmark_workloads,
    catalog_fibers,
    check_gcd_components,
    complex_homology_dims,
    connected_components,
    euler_characteristic_checks,
    full_fibers,
    gcd_complex,
    maximal_masks_oracle,
    maximal_supports_meet,
    reference_scan,
    same_classes,
    scan_problems,
    small_scan_bound,
    squarefree_betti_oracle,
    squarefree_faces,
    suite_b_lattices,
    support_complex,
    table_bound_problems,
)
from latticescarf.fibers import MemberPacking, class_leq, enumerate_fiber, support_mask
from latticescarf.homology import (
    betti_at,
    betti_scan,
    betti_table,
    gcd_components,
    minimal_betti_degrees,
    reduced_homology_dims,
    scan_degree_classes,
)
from latticescarf.lattice_core import (
    CosetPacking,
    DegreeClass,
    LatticeBasis,
    SemigroupMatrix,
    lattice_from_semigroup,
)
from latticescarf.linalg import is_prime, rank_exact

ABD = (1, 1, 0, 1, 0)

# a minimal triangulation of the real projective plane: homology over the
# rationals vanishes, over GF(2) it does not
RP2_FACETS = [
    (0, 1, 2),
    (0, 1, 5),
    (0, 2, 4),
    (0, 3, 4),
    (0, 3, 5),
    (1, 2, 3),
    (1, 3, 4),
    (1, 4, 5),
    (2, 3, 5),
    (2, 4, 5),
]


def both_homologies(facets, field="q"):
    """Reduced homology of the complex generated by facets (vertex tuples),
    by the package's mask routine and by the face-tuple oracle, which must
    agree key for key, in order."""
    n = 1 + max((v for f in facets for v in f), default=-1)
    dims = complex_homology_dims(SimplicialComplex(range(n), facets), field)
    masks = [sum(1 << v for v in f) for f in facets]
    assert list(reduced_homology_dims(masks, field).items()) == list(dims.items())
    return dims


def test_facet_domination():
    K = SimplicialComplex(("x", "y"), [(0, 1), (0,)])
    assert K.facets == (frozenset({0, 1}),)
    assert K.f_vector() == (2, 1)


def test_empty_facets_are_stripped():
    K = SimplicialComplex(("x",), [()])
    assert K.facets == ()
    assert complex_homology_dims(K) == {-1: 1}


def test_facet_vertex_out_of_range():
    with pytest.raises(ValueError):
        SimplicialComplex(("x",), [(0, 1)])


def test_faces_are_downward_closed():
    K = SimplicialComplex(tuple("abcd"), [(0, 1, 2), (2, 3)])
    fs = K.faces()
    assert fs[0] == [(0,), (1,), (2,), (3,)]
    assert (0, 1) in fs[1] and (2, 3) in fs[1]
    assert fs[2] == [(0, 1, 2)]


def test_gcd_complex_10_8(ex63):
    fib = enumerate_fiber(ex63.lattice, ABD)
    K = gcd_complex(fib)
    # canonical vertex order: abd, ac^2, b^2c, e^2
    assert K.vertex_labels == (
        (1, 1, 0, 1, 0),
        (1, 0, 2, 0, 0),
        (0, 2, 1, 0, 0),
        (0, 0, 0, 0, 2),
    )
    assert set(K.facets) == {
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
        frozenset({3}),
    }


def test_gcd_complex_single_monomial(ex63):
    fib = enumerate_fiber(ex63.lattice, (1, 0, 0, 0, 0))
    assert fib.members == ((1, 0, 0, 0, 0),)
    K = gcd_complex(fib)
    assert K.facets == (frozenset({0}),)
    assert complex_homology_dims(K) == {-1: 0, 0: 0}
    assert reduced_homology_dims({support_mask(m) for m in fib}) == {-1: 0, 0: 0}


def test_gcd_complex_182(ex64):
    fib = enumerate_fiber(ex64.lattice, (2, 2, 0, 0, 0, 0))
    K = gcd_complex(fib)
    assert len(K.facets) == 6
    assert all(len(f) == 2 for f in K.facets)
    comps = connected_components(K)
    assert len(comps) == 2
    assert sorted(len(c) for c in comps) == [3, 3]


def test_support_complex_6_6(ex63):
    fib = enumerate_fiber(ex63.lattice, (0, 1, 1, 0, 0))
    K = support_complex(fib)
    assert set(map(frozenset, K.facets)) == {frozenset({0, 3}), frozenset({1, 2})}


def test_support_complex_unit_fiber(ex63):
    fib = enumerate_fiber(ex63.lattice, (0, 0, 0, 0, 0))
    K = support_complex(fib)
    assert K.facets == ()
    assert complex_homology_dims(K) == {-1: 1}
    assert reduced_homology_dims({support_mask(m) for m in fib}) == {-1: 1}


def test_support_complex_10_8(ex63):
    fib = enumerate_fiber(ex63.lattice, ABD)
    K = support_complex(fib)
    assert set(map(frozenset, K.facets)) == {
        frozenset({0, 1, 3}),
        frozenset({0, 2}),
        frozenset({1, 2}),
        frozenset({4}),
    }


def test_connected_components(ex63):
    fib = enumerate_fiber(ex63.lattice, ABD)
    comps = connected_components(gcd_complex(fib))
    assert len(comps) == 2
    as_sets = sorted(map(set, comps), key=len)
    assert as_sets[0] == {(0, 0, 0, 0, 2)}
    assert as_sets[1] == {(1, 1, 0, 1, 0), (1, 0, 2, 0, 0), (0, 2, 1, 0, 0)}
    single = gcd_complex(enumerate_fiber(ex63.lattice, (1, 0, 0, 0, 0)))
    assert connected_components(single) == (((1, 0, 0, 0, 0),),)
    assert gcd_components(fib) == comps
    # the unit is no vertex of its gcd complex, and an empty fiber has none
    for u in ((0, 0, 0, 0, 0), (-1, 1, 0, 0, 0)):
        other = enumerate_fiber(ex63.lattice, u)
        assert gcd_components(other) == connected_components(gcd_complex(other)) == ()


def test_gcd_components_equal_complex_components(suite):
    check_gcd_components(suite, random.Random(101))


def test_reduced_homology_small_cases():
    assert both_homologies([(0, 1), (2, 3)])[0] == 1
    dims = both_homologies([(0, 1), (0, 2), (1, 2)])
    assert dims[1] == 1 and dims[0] == 0
    dims = both_homologies([(0, 1, 2), (3,)])
    assert dims[0] == 1
    assert all(v == 0 for j, v in dims.items() if j != 0)
    # 6 vertices, 3 facets: homology goes through the nerve, a hollow
    # triangle, so no index reaches the ring's own dimension 2
    dims = both_homologies([(0, 1, 2), (2, 3, 4), (4, 5, 0)])
    assert dims == {-1: 0, 0: 0, 1: 1}
    # no facet, or only empty ones: the complex {emptyset}
    assert both_homologies([]) == both_homologies([()]) == {-1: 1}
    assert reduced_homology_dims([0, 0]) == {-1: 1}
    # nested and repeated masks change no face, through the nerve (three
    # facets on six vertices) and without it (RP^2)
    for field in ("q", 2, 3, 32003):
        hollow = [(0, 1, 2), (2, 3, 4), (4, 5, 0), (0, 1), (2, 3, 4), (4,)]
        assert both_homologies(hollow, field) == {-1: 0, 0: 0, 1: 1}
        rp2 = RP2_FACETS + [(0, 1), (0,), (0, 1, 2), (2, 4, 5)]
        assert both_homologies(rp2, field) == both_homologies(RP2_FACETS, field)


def test_maximal_masks_match_the_pairwise_oracle():
    """_maximal_masks keeps the distinct nonzero masks that no other mask
    contains (helpers.maximal_masks_oracle), once each, in the order of
    the masks sorted by size, largest first: on seeded lists of up to 12
    masks over up to 8 vertices, with zeros, repeats and nested masks."""
    from latticescarf.homology import _maximal_masks

    rng = random.Random(36)
    nested = repeated = 0
    for _ in range(3000):
        n = rng.randint(1, 8)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 6))]
        for _ in range(rng.randint(0, 6)):
            pick = rng.choice(masks) if masks else 0
            masks.append(rng.choice((0, pick, pick & rng.getrandbits(n))))
        got = _maximal_masks(masks)
        assert set(got) == maximal_masks_oracle(masks), masks
        by_size = sorted(set(masks), key=int.bit_count, reverse=True)
        assert got == [s for s in by_size if s in got], masks
        nested += len(set(masks) - {0}) > len(got)
        repeated += len(masks) > len(set(masks))
    assert nested > 1000 and repeated > 1000, (nested, repeated)


def test_negative_mask_raises():
    """A negative mask has infinitely many bits set; it raises ValueError
    at once (checked in a subprocess, so that a loop over its bits fails
    the test instead of hanging the suite)."""
    code = "\n".join(
        [
            "import resource",
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
            "from latticescarf.homology import reduced_homology_dims",
            "for masks in ([-1], [3, -2]):",
            "    try:",
            "        reduced_homology_dims(masks)",
            "    except ValueError:",
            "        print('raised')",
        ]
    )
    src = str(pathlib.Path(latticescarf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=5
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised"]


def test_homology_field_dependence_rp2(monkeypatch):
    """Over GF(2), RP^2 has homology in degrees 1 and 2, so over Q the map
    between them is ranked again exactly (rank_exact with p = 0), which
    finds one rank more and clears both degrees."""
    from latticescarf import homology

    K = SimplicialComplex(tuple(range(6)), RP2_FACETS)
    assert K.f_vector() == (6, 15, 10)
    reruns = []

    def counted(rows, p=0):
        if not p:
            reruns.append((len(rows), len(set().union(*rows))))
        return rank_exact(rows, p)

    monkeypatch.setattr(homology, "rank_exact", counted)
    # 10 facets on 6 vertices: no nerve, whose faces would reach dimension 4
    over_2 = both_homologies(RP2_FACETS, 2)
    assert over_2 == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert reruns == []
    over_q = both_homologies(RP2_FACETS, "q")
    assert over_q == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert reruns == [(10, 15)]


@pytest.mark.parametrize("field", ["q", 2, 32003])
def test_cones_match_face_oracle(field):
    """Random complexes whose facets all contain one vertex are cones: the
    mask routine gives all zeros with the keys, in order, of the face-tuple
    oracle, both with fewer maximal facets than vertices (the nerve) and
    with at least as many."""
    rng = random.Random(241)
    branches = set()
    for t in range(400):
        n = rng.randint(2, 7)
        apex = rng.randrange(n)
        k = rng.randint(1, n - 1) if t % 2 else rng.randint(n, n + 6)
        facets = [
            tuple(sorted({apex, *rng.sample(range(n), rng.randint(0, n))}))
            for _ in range(k)
        ]
        assert not any(both_homologies(facets, field).values())
        maximal = {f for f in facets if not any(set(f) < set(g) for g in facets)}
        branches.add(len(maximal) < len(set().union(*facets)))
    assert branches == {True, False}


def test_each_field_ranks_with_its_own_routine(monkeypatch):
    """The hollow triangle ranks its boundary maps as bitsets over Q and
    GF(2), and exactly mod p over an odd prime p; over Q it
    has homology in one degree only, so nothing is ranked again.  RP^2
    over Q ranks one map again exactly."""
    from latticescarf import homology

    calls = []

    def counted(name):
        real = getattr(homology, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for name in ("rank_gf2", "rank_exact"):
        monkeypatch.setattr(homology, name, counted(name))
    for field in ("q", 2, 3, 32003):
        assert reduced_homology_dims([0b011, 0b101, 0b110], field)[1] == 1
        rank = "rank_exact" if field == 3 or field == 32003 else "rank_gf2"
        assert set(calls) == {rank}, field
        calls.clear()
    reduced_homology_dims([sum(1 << v for v in f) for f in RP2_FACETS], "q")
    assert calls.count("rank_exact") == 1


@pytest.mark.parametrize("field", ["q", 2, 3, 32003])
def test_the_augmentation_map_is_never_ranked(suite, monkeypatch, field):
    """The map out of the vertices has rank 1 on every complex with a
    vertex, so it is never built: each row handed to rank_exact comes from
    the map out of the faces of k >= 2 vertices and has k entries, and a
    complex of bare vertices calls no rank routine at all."""
    from latticescarf import homology

    lengths, calls, real_gf2 = [], [], homology.rank_gf2

    def exact(rows, p=0):
        lengths.extend(map(len, rows))
        return rank_exact(rows, p)

    def gf2(rows):
        calls.append(rows)
        return real_gf2(rows)

    monkeypatch.setattr(homology, "rank_exact", exact)
    monkeypatch.setattr(homology, "rank_gf2", gf2)
    for data in suite.values():
        atlas = scan_degree_classes(data.lattice, data.bound, data.functional)
        betti_table(atlas, field)
    both_homologies(RP2_FACETS, field)  # over Q, one map ranked again
    # GF(2) ranks every map as bitsets alone
    assert bool(lengths) == (field != 2) and min(lengths, default=2) >= 2
    calls.clear()
    lengths.clear()
    assert both_homologies([(0,), (1,), (2,)], field) == {-1: 0, 0: 2}
    assert calls == [] and lengths == []


def test_field_validation():
    K = SimplicialComplex(("x",), [(0,)])
    for bad in ("x", "Q", 1, 0, -7, 4, 32001, True):
        with pytest.raises(ValueError):
            complex_homology_dims(K, bad)
        # validated before any face is built, even with no face to build
        for masks in ([1], [0], []):
            with pytest.raises(ValueError):
                reduced_homology_dims(masks, bad)
    for good in ("q", 2, 32003):
        assert both_homologies([(0,)], good) == {-1: 0, 0: 0}


def test_betti_table_checks_the_field_once(ex63, monkeypatch):
    """A table checks its field once, up front, not once per fiber: one
    is_prime call per table over a prime; a composite field still
    raises, from the table and from reduced_homology_dims called
    directly."""
    from latticescarf import homology

    atlas = scan_degree_classes(ex63.lattice, ex63.bound, ex63.functional)
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(homology, "is_prime", counted)
    T = betti_table(atlas, 32003)
    assert calls == [32003] and len(atlas.fibers) > 1
    assert T.entries == betti_table(atlas, "q").entries
    betti_table(atlas, 2)
    assert calls == [32003, 2]
    for bad in (4, 32001):
        with pytest.raises(ValueError):
            betti_table(atlas, bad)
        with pytest.raises(ValueError):
            reduced_homology_dims([1, 2], bad)


def test_betti_scan_composite_field(ex63):
    with pytest.raises(ValueError):
        betti_scan(ex63.lattice, 40, field=4, functional=ex63.functional)


def value(w, b):
    return sum(x * y for x, y in zip(w, b.representative))


def truncated_tables(suite):
    """(where, atlas, v, T) for each of table_bound_problems, at every
    value v of a carried class and at the scan bound, T the table to v."""
    for where, L, bound, w in table_bound_problems(suite):
        atlas = scan_degree_classes(L, bound, w)
        for v in sorted({*atlas.values, bound}):
            yield where, atlas, v, betti_table(atlas, bound=v)


def test_the_table_keeps_the_scans_value_key_order(suite):
    """The scan decides the order and every reader keeps it, on the
    fixtures and suite (b)'s first 10 lattices: values[k] is
    sigma(degrees[k]), (value, key) strictly increases along the atlas,
    and each truncated table's degrees(i) is sorted by (sigma, key)."""
    tables = 0
    for where, atlas, v, T in truncated_tables(suite):
        w = atlas.functional
        assert list(atlas.values) == [value(w, b) for b in atlas.degrees], where
        order = [(s, b.key) for s, b in zip(atlas.values, atlas.degrees, strict=True)]
        assert all(a < b for a, b in zip(order, order[1:])), where
        for i in T.homological_degrees():
            want = sorted(T.degrees(i), key=lambda b: (value(w, b), b.key))
            assert T.degrees(i) == want, (where, v, i)
        tables += 1
    assert tables > 100, tables


def test_a_table_bound_ranks_the_classes_up_to_it(suite):
    """betti_table(atlas, field, bound=v), at each carried value v, holds
    the full table's entries of value <= v, in its order, over Q, GF(2)
    and GF(32003); the default bound is the scan's."""
    for where, L, bound, w in table_bound_problems(suite):
        atlas = scan_degree_classes(L, bound, w)
        for field in ("q", 2, 32003):
            full = betti_table(atlas, field)
            assert full.bound == bound
            for v in sorted({value(w, b) for b in atlas.degrees}):
                T = betti_table(atlas, field, bound=v)
                want = [e for e in full.entries.items() if value(w, e[0][1]) <= v]
                assert T.bound == v, (where, field, v)
                assert list(T.entries.items()) == want, (where, field, v)


def test_a_table_bound_is_an_int_within_the_scan(suite):
    for data in suite.values():
        atlas = scan_degree_classes(data.lattice, data.bound, data.functional)
        assert betti_table(atlas, bound=0).entries == {}
        assert betti_table(atlas, bound=data.bound).entries == data.table.entries
        for bad in (data.bound + 1, -1, True, False, 1.0, "1"):
            with pytest.raises(ValueError, match="table bound"):
                betti_table(atlas, bound=bad)


def test_a_truncated_table_refuses_past_its_bound(suite):
    """get and leq raise past the table bound, as for a table scanned to
    it, and below it answer as the full table does."""
    for data in suite.values():
        w, full = data.functional, data.table
        atlas = scan_degree_classes(data.lattice, data.bound, w)
        values = sorted({value(w, b) for b in atlas.degrees})
        v = values[len(values) // 2]
        T = betti_table(atlas, bound=v)
        zero = atlas.degrees[0]
        for b in atlas.degrees:
            if value(w, b) > v:
                for read in (lambda: T.get(1, b), lambda: T.leq(zero, b)):
                    with pytest.raises(ValueError, match="exceeds the scan bound"):
                        read()
                continue
            for i in (1, 2, 3):
                assert T.get(i, b) == full.get(i, b), (data.name, i, b)
            for d in atlas.degrees:
                if value(w, b) - value(w, d) <= v:
                    assert T.leq(d, b) == full.leq(d, b), (data.name, d, b)


def test_betti_at(ex63, ex64):
    L = ex63.lattice
    assert betti_at(enumerate_fiber(L, ABD), 1) == 1
    assert betti_at(enumerate_fiber(L, (1, 0, 0, 0, 0)), 1) == 0
    assert betti_at(enumerate_fiber(ex64.lattice, (2, 2, 0, 0, 0, 0)), 2) == 2
    with pytest.raises(ValueError):
        betti_at(enumerate_fiber(L, ABD), 0)
    # an invalid field fails on fibers of at most one monomial too
    with pytest.raises(ValueError):
        betti_at(enumerate_fiber(L, (1, 0, 0, 0, 0)), 1, field=4)
    with pytest.raises(ValueError):
        betti_at(enumerate_fiber(L, (0, 0, 0, 0, 0)), 1, field="bogus")


def test_betti_scan_ex63(ex63):
    T = ex63.table
    degs = {i: sorted(ex63.semigroup_degree(b) for b in T.degrees(i)) for i in (1, 2, 3)}
    assert degs[1] == [(4, 8), (6, 6), (8, 4), (10, 8)]
    assert degs[2] == [(8, 10), (10, 8), (14, 16), (16, 14), (18, 12)]
    assert degs[3] == [(18, 18), (20, 16)]
    assert {i: T.total(i) for i in T.homological_degrees()} == {1: 4, 2: 5, 3: 2}
    for i in (1, 2, 3):
        for b in T.degrees(i):
            assert T.get(i, b) == 1


def test_betti_scan_zero_lattice():
    T = betti_scan(LatticeBasis([], n=3), 10)
    assert not T.entries
    assert T.homological_degrees() == []


def test_minimal_betti_degrees(ex63):
    got = {
        ex63.semigroup_degree(b)
        for b in minimal_betti_degrees(ex63.table, 1)
    }
    assert got == {(6, 6), (8, 4), (4, 8)}


def test_minimal_betti_degrees_match_all_pairs(suite, ex63):
    """Testing each degree only against the degrees before it in
    T.degrees(i) loses no divisor and adds none: the all-pairs definition
    gives the same degrees, in order, on every truncated table of the
    fixtures and suite (b)'s first 10 lattices.  Degrees of equal value
    do occur side by side, where a degree is tested against one of its
    own value: ex63's 1-Betti degrees (4, 8), (6, 6) and (8, 4) all have
    value 12, and each is minimal."""
    ties = 0
    for where, atlas, v, T in truncated_tables(suite):
        for i in T.homological_degrees():
            degs = T.degrees(i)
            want = [b for b in degs if not any(d != b and T.leq(d, b) for d in degs)]
            assert minimal_betti_degrees(T, i) == want, (where, v, i)
            values = [value(T.functional, b) for b in degs]
            ties += sum(a == b for a, b in zip(values, values[1:]))
    assert ties > 30, ties
    T = ex63.table
    first = T.degrees(1)[:3]
    assert [ex63.semigroup_degree(b) for b in first] == [(4, 8), (6, 6), (8, 4)]
    assert [value(T.functional, b) for b in first] == [12, 12, 12]
    assert minimal_betti_degrees(T, 1)[:3] == first


def test_betti_scan_stability(ex61):
    T40 = ex61.table
    T52 = betti_scan(ex61.lattice, 52, functional=ex61.functional)
    small = {k: v for k, v in T52.entries.items()}
    # entries within the smaller bound coincide; the larger scan may add none
    assert {(i, b.key): v for (i, b), v in T40.entries.items()} == {
        (i, b.key): v for (i, b), v in small.items()
    }


def test_scan_degree_classes_oracle(ex61):
    import itertools

    L = ex61.lattice
    got = scan_degree_classes(L, 20, ex61.functional)
    assert len(got) == len(got.scanned)
    # sigma values are the functional applied to the representative
    order = []
    for fib in got.fibers:
        b = fib.degree
        assert b.representative in fib
        s = sum(w * x for w, x in zip(ex61.functional, b.representative))
        order.append((s, b.key))
    assert order == sorted(order)
    brute = set()
    for u in itertools.product(range(6), repeat=4):
        if sum(w * x for w, x in zip(ex61.functional, u)) <= 20:
            brute.add(L.canonical_key(u))
    assert same_classes(got.scanned, brute)


def test_scan_reduces_no_class_per_step(monkeypatch, ex64):
    """The scan steps packed keys by addition: canonical_key runs at most
    once per carried fiber (60 of ex64's 469 classes, where a reduction
    per step would make thousands); every DegreeClass computes one."""
    calls = []
    key = LatticeBasis.canonical_key

    def counted(L, u):
        calls.append(u)
        return key(L, u)

    monkeypatch.setattr(LatticeBasis, "canonical_key", counted)
    atlas = scan_degree_classes(ex64.lattice, ex64.bound, ex64.functional)
    assert (len(atlas), len(atlas.fibers)) == (469, 60)
    assert len(calls) <= 60, len(calls)


def test_scan_builds_classes_only_for_carried_fibers(monkeypatch, ex64):
    """A DegreeClass is made for each carried fiber and for no other class:
    not for the 283 classes of cone mask 0 whose maximal supports share a
    variable."""
    made = []
    init = DegreeClass.__init__

    def counted(self, lattice, representative):
        init(self, lattice, representative)
        made.append(self.key)

    monkeypatch.setattr(DegreeClass, "__init__", counted)
    atlas = scan_degree_classes(ex64.lattice, 600, ex64.functional)
    assert (len(atlas), len(atlas.fibers), len(made)) == (469, 60, 60)
    assert sorted(made) == sorted(fib.degree.key for fib in atlas.fibers)


def test_atlas_readers_compute_no_support_mask(monkeypatch, ex64):
    """The scan hands each fiber its support masks, so neither the scan nor
    the Betti table, the poset and the 1-Betti classes read from ex64's
    atlas, nor reading the members and masks, call support_mask, under any
    module's binding of it."""
    from latticescarf import cli, fibers, homology, scarf

    calls = []

    def counted(u):
        calls.append(u)
        return support_mask(u)

    for module in (fibers, homology, scarf, cli):
        monkeypatch.setattr(module, "support_mask", counted, raising=False)
    atlas = scan_degree_classes(ex64.lattice, ex64.bound, ex64.functional)
    T = homology.betti_table(atlas)
    poset = scarf.scarf_poset(atlas)
    generators, indispensables = scarf.binomials(atlas)
    for fib in scan_degree_classes(ex64.lattice, ex64.bound, ex64.functional).fibers:
        assert fib.members and fib.masks
    assert calls == []
    assert T.entries and len(poset) and generators and indispensables


def collections_during(fn):
    """The garbage collections that fn() starts, under the interpreter's
    default thresholds (700, 10, 10) and from a fresh count."""
    started = []

    def counted(phase, info):
        if phase == "start":
            started.append(info["generation"])

    thresholds, enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(700, 10, 10)
    gc.enable()
    gc.collect()
    gc.callbacks.append(counted)
    try:
        fn()
    finally:
        gc.callbacks.remove(counted)
        gc.set_threshold(*thresholds)
        if not enabled:
            gc.disable()
    return len(started)


def test_scan_keeps_no_object_per_cone_class(ex64):
    """A gen-0 collection runs per 700 container objects kept, so a scan
    that kept a list per class would run 17 on the benchmark's largest
    random lattice (11 662 classes, 4 carried); one that keeps ints runs
    none.  ex64 (469 classes, 343 of cone mask 0, 60 carried) runs at
    most 4."""
    tail = LatticeBasis(((-3, 1, 3, 3, 1), (0, -3, -3, -2, 1)))
    atlas = []
    scan = lambda: atlas.append(scan_degree_classes(tail, 31, (5, 1, 1, 1, 8)))
    assert collections_during(scan) == 0
    assert (len(atlas[0]), len(atlas[0].fibers)) == (11662, 4)
    L, w = ex64.lattice, ex64.functional
    assert collections_during(lambda: scan_degree_classes(L, ex64.bound, w)) <= 4


def scan_summary(atlas):
    """The class count and the carried (key, representative, value,
    members, masks, facets) in order, the value as atlas.values holds it
    and the facets as a set after checking that they come largest first."""
    carried = []
    for fib, s, facets in zip(atlas.fibers, atlas.values, atlas.facets, strict=True):
        b = fib.degree
        sizes = [f.bit_count() for f in facets]
        assert sizes == sorted(sizes, reverse=True), b.representative
        facets = frozenset(facets)
        carried.append((b.key, b.representative, s, fib.members, fib.masks, facets))
    return len(atlas), carried


# two lattices whose quotient has two torsion coordinates: (Z/2)^2 and
# Z/2 + Z/3 beside the free part
TWO_TORSION_FIELDS = ([(2, -2, 0, 0), (0, 0, 2, -2)], [(2, -2, 0, 0), (0, 0, 3, -3)])
# two lattices whose torsion blocks have Hermite forms that are not
# diagonal: ((2, 3), (0, 6)) and ((1, 2), (0, 8))
NON_DIAGONAL_TORSION = ([(-4, 0, 4), (-2, 3, -1)], [(4, -4, -4, 4), (3, -3, 3, -1)])


# the one torsion lattice of the benchmark's random pool batch (Z/3)
POOL_62 = ((3, 3, -3, 0), (1, 3, -2, -1))


def drop_problems(suite, semigroups):
    """(where, L, bound, functional): the fixtures at their bounds, the
    numerical semigroups of the (generators, bound) pairs semigroups, the
    torsion lattices and pool lattice 62."""
    problems = [(name, d.lattice, d.bound, d.functional) for name, d in suite.items()]
    for gens, bound in semigroups:
        A = SemigroupMatrix([gens])
        problems.append((repr(gens), lattice_from_semigroup(A), bound, A.column_sums()))
    for rows in TWO_TORSION_FIELDS + NON_DIAGONAL_TORSION:
        L = LatticeBasis(rows)
        problems.append((repr(rows), L, 2 * small_scan_bound(L), L.functional))
    problems.append(("pool lattice 62", LatticeBasis(POOL_62), 15, (1, 2, 3, 1)))
    return problems


SMALL_SEMIGROUPS = (((3, 5, 7, 11, 13), 40), (tuple(range(5, 12)), 30), (tuple(range(7, 14)), 30))


def test_dropped_fibers_hold_nothing_a_reader_needs(suite):
    """The scan drops the classes whose maximal supports share a variable.
    On every nonempty class of helpers.full_fibers, on the fixtures at
    their bounds, three semigroups at small bounds, five lattices with
    torsion and suite (b)'s first 5 lattices (one with torsion), each
    such fiber has, by the face-tuple oracles, no basic component, one
    gcd component (so beta_1 = 0 and no binomial) and no homology; and
    the atlas carries exactly the other classes, in order.  A carried
    class whose support complex has no homology has no basic component
    and one gcd component either: components sit only where some beta
    is nonzero, as the bound rank E_C <= beta_{i,b} needs."""
    problems = drop_problems(suite, SMALL_SEMIGROUPS)
    problems += scan_problems({}, itertools.islice(suite_b_lattices(random.Random(107)), 5))
    dropped = acyclic_kept = 0
    for where, L, bound, w in problems:
        kept = []
        for b, _s, fib in full_fibers(L, bound, w):
            acyclic = not any(complex_homology_dims(support_complex(fib)).values())
            if not maximal_supports_meet(fib):
                kept.append(b.key)
                if not acyclic:
                    continue
                acyclic_kept += 1
            else:
                dropped += 1
            at = (where, b.representative)
            assert acyclic, at
            assert basic_components_oracle(L, fib) == [], at
            assert len(connected_components(gcd_complex(fib))) == 1, at
        atlas = scan_degree_classes(L, bound, w)
        assert [fib.degree.key for fib in atlas.fibers] == kept, where
    assert dropped > 1000 and acyclic_kept > 3, (dropped, acyclic_kept)


def test_scan_carries_exactly_the_classes_whose_complex_is_no_cone(suite):
    """A class is carried iff its squarefree divisor complex
    {F : b - e_F has a monomial} is not a cone, and its facets are that
    complex's maximal nonzero faces, largest first.  The oracle reads
    each complex from key membership in reference_scan's classes
    (helpers.squarefree_faces), with no scan code, member or support mask:
    on the fixtures at their bounds, the three semigroups at small bounds,
    the torsion lattices, pool lattice 62 and <10, ..., 19>, a complex
    on 10 variables."""
    problems = drop_problems(suite, SMALL_SEMIGROUPS + ((tuple(range(10, 20)), 40),))
    cones = wide = 0
    for where, L, bound, w in problems:
        keys = reference_scan(L, bound, w).scanned
        want = {}
        for key in keys:
            faces = set(squarefree_faces(L, key, keys))
            if any(all(F | 1 << v in faces for F in faces) for v in range(L.n)):
                cones += 1
                continue
            # F is maximal when no face strictly contains it
            want[key] = {F for F in faces if F and not any(F & G == F != G for G in faces)}
        atlas = scan_degree_classes(L, bound, w)
        order = sorted(want, key=lambda key: (sum(map(int.__mul__, w, key)), key))
        assert [fib.degree.key for fib in atlas.fibers] == order, where
        for fib, facets in zip(atlas.fibers, atlas.facets, strict=True):
            sizes = [F.bit_count() for F in facets]
            assert sizes == sorted(sizes, reverse=True), (where, fib)
            assert sorted(facets) == sorted(want[fib.degree.key]), (where, fib)
        wide += L.n >= 10 and len(atlas.fibers) > 10
    assert cones > 500 and wide, (cones, wide)


def test_scan_matches_reference_scan(suite, monkeypatch):
    """The scan equals the oracle, which reduces a Hermite key at every
    step, on the fixtures at their bounds, suite (b)'s first 10 lattices
    (three with torsion), two lattices with two torsion coordinates and
    two whose torsion Hermite forms are not diagonal: the same classes,
    compared through the packing, and the same carried fibers with the
    same support masks, which the scan steps with the monomials and the
    oracle computes from them, and the same facets, which the scan builds
    from the facets of the classes one step below and the oracle takes
    as the maximal member supports (_maximal_sets); the representatives, which every
    report prints, pin the search order.  The scan's cached moves are
    made once per torsion digits and sign, and on the torsion lattices
    for more than one set of digits."""
    lattices = itertools.islice(suite_b_lattices(random.Random(101)), 10)
    problems = scan_problems(suite, lattices)
    torsion = []
    for rows in TWO_TORSION_FIELDS + NON_DIAGONAL_TORSION:
        L = LatticeBasis(rows)
        torsion.append((repr(rows), L, 4 * small_scan_bound(L), L.functional))
    # a Z/3 torsion lattice with many cone classes: 319 classes, 17 of
    # cone mask 0, 4 carried
    torsion.append(("pool lattice 62", LatticeBasis(POOL_62), 15, (1, 2, 3, 1)))
    moves, made = CosetPacking.moves, []

    def counted(self, digits, sign):
        made.append((digits, sign))
        return moves(self, digits, sign)

    monkeypatch.setattr(CosetPacking, "moves", counted)
    for where, L, bound, w in problems + torsion:
        made.clear()
        got = scan_degree_classes(L, bound, w)
        assert len(made) == len(set(made)), where
        if where in {t[0] for t in torsion}:
            assert len(made) > 2, where
        want = reference_scan(L, bound, w)
        assert same_classes(got.scanned, want.scanned), where
        assert scan_summary(got) == scan_summary(want), where


def test_scan_of_wide_semigroups_matches_reference_scan():
    """A scan costs what its classes and fibers cost, not 2^n: <24, ...,
    47> at bounds 0, 75 and 100 (up to 78 classes, fibers up to 76
    members) and <64, ..., 127> at bounds 0, 128 and 160 equal
    reference_scan, and the six scans together take under two seconds,
    where each takes milliseconds.  A scan that held one bit per face of
    the simplex on n vertices ran for over a minute at n = 24, bound 0."""
    spent = 0
    for first, bounds in ((24, (0, 75, 100)), (64, (0, 128, 160))):
        A = SemigroupMatrix([tuple(range(first, 2 * first))])
        L, w = lattice_from_semigroup(A), A.column_sums()
        for bound in bounds:
            start = time.perf_counter()
            got = scan_degree_classes(L, bound, w)
            spent += time.perf_counter() - start
            want = reference_scan(L, bound, w)
            assert same_classes(got.scanned, want.scanned), (first, bound)
            assert scan_summary(got) == scan_summary(want), (first, bound)
    assert spent < 2, spent


@pytest.mark.parametrize(
    "top, width",
    [
        (0, 8),
        (255, 8),
        (256, 16),
        (65535, 16),
        (65536, 32),
        (2**32, 64),
        (2**64 - 1, 64),
    ],
)
def test_member_packing_round_trip(top, width):
    """Packed members decode to themselves, their masks are the low n
    bits, descending int order is canonical order, and a field is the
    narrowest struct code that holds top."""
    layout = MemberPacking(3, top)
    assert layout.units == (1 << 3 + 2 * width, 1 << 3 + width, 1 << 3)
    us = {(0, 0, 0), (top, 0, 1), (0, top, 0), (1, 1, top), (top, top, top)}
    us = sorted(u for u in us if max(u) <= top)
    random.Random(top).shuffle(us)
    packed = [sum(map(int.__mul__, u, layout.units)) | support_mask(u) for u in us]
    assert layout.unpack(packed) == tuple(us)
    assert layout.masks(packed) == tuple(map(support_mask, us))
    order = sorted(range(len(us)), key=packed.__getitem__, reverse=True)
    assert [us[k] for k in order] == sorted(us, reverse=True)


def test_member_packing_step_first():
    """step_first(packed, j) steps by e_j the suffix of a descending packed
    list whose fields u_0 ... u_{j-1} are all 0, in order: the whole list
    for j = 0, none of a list above that, all of a list below it."""
    layout = MemberPacking(3, 5)
    us = [(2, 0, 1), (1, 1, 0), (0, 2, 1), (0, 1, 0), (0, 0, 3), (0, 0, 1)]
    packed = [sum(map(int.__mul__, u, layout.units)) | support_mask(u) for u in us]
    assert packed == sorted(packed, reverse=True)

    def stepped(j, part):
        got = layout.step_first([packed[us.index(u)] for u in part], j)
        e = tuple(int(k == j) for k in range(3))
        want = [tuple(map(int.__add__, u, e)) for u in part if not any(u[:j])]
        assert layout.unpack(got) == tuple(want)
        assert layout.masks(got) == tuple(map(support_mask, want))
        return want

    assert len(stepped(0, us)) == 6
    assert stepped(1, us) == [(0, 3, 1), (0, 2, 0), (0, 1, 3), (0, 1, 1)]
    assert stepped(2, us) == [(0, 0, 4), (0, 0, 2)]
    for j in range(3):
        assert layout.step_first([], j) == []
    assert stepped(1, us[:2]) == stepped(2, us[:4]) == []
    assert stepped(1, us[2:]) == [(0, 3, 1), (0, 2, 0), (0, 1, 3), (0, 1, 1)]
    assert stepped(2, us[4:]) == [(0, 0, 4), (0, 0, 2)]


def test_too_wide_member_fields_fail_before_the_scan(monkeypatch):
    """Exponents past 8-byte fields raise ValueError before any class is
    packed, so a huge bound starts no search."""
    from latticescarf import homology

    def no_search(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(homology, "CosetPacking", no_search)
    L = LatticeBasis([(1, -1)])
    with pytest.raises(ValueError, match="8-byte fields"):
        scan_degree_classes(L, 2**64, (1, 1))
    with pytest.raises(ValueError, match="8-byte fields"):
        MemberPacking(2, 2**64)
    with pytest.raises(AssertionError, match="the scan started"):
        scan_degree_classes(L, 2**64 - 1, (1, 1))


def test_scanned_fibers_decode_to_the_full_fibers():
    """Each carried fiber's members and masks, decoded from the packed
    members, equal those of helpers.full_fibers, values and order: on
    suite (b)'s first 8 lattices and on two lattices whose exponents need
    2-byte fields."""
    lattices = itertools.islice(suite_b_lattices(random.Random(103)), 8)
    problems = scan_problems({}, lattices)
    wide = (([(1, -1)], 300, (1, 1)), ([(1, -1, 0), (0, 300, -1)], 320, (1, 1, 300)))
    for rows, bound, w in wide:
        problems.append((repr(rows), LatticeBasis(rows), bound, w))
    widest = 0
    for where, L, bound, w in problems:
        full = {b.key: fib for b, _s, fib in full_fibers(L, bound, w)}
        for fib in scan_degree_classes(L, bound, w).fibers:
            want = full[fib.degree.key]
            assert fib.members == want.members and fib.masks == want.masks, where
            widest = max(widest, max(map(max, fib.members)))
    assert widest >= 256


def test_scan_work_does_not_grow_with_the_weights():
    """Scaling the functional and the bound by 10**6 changes nothing: no
    work or memory follows the magnitude of the values."""
    L = LatticeBasis([(1, -1, 0)])
    small = scan_summary(scan_degree_classes(L, 4, (1, 1, 1)))
    keys = reference_scan(L, 4, (1, 1, 1)).scanned
    tracemalloc.start()
    try:
        big = scan_degree_classes(L, 4 * 10**6, (10**6,) * 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_classes(big.scanned, keys) and len(big) == small[0]
    assert [
        (fib.degree.key, fib.degree.representative, fib.members, fib.masks)
        for fib in big.fibers
    ] == [(key, rep, members, masks) for key, rep, _s, members, masks, _f in small[1]]
    assert peak < 2**20, peak


def test_scan_degree_classes_bad_functional(ex61):
    with pytest.raises(ValueError):
        scan_degree_classes(ex61.lattice, 10, (0, 1, 1, 1))
    with pytest.raises(ValueError):
        scan_degree_classes(ex61.lattice, 10, (1, 1))
    with pytest.raises(ValueError):  # positive, but not orthogonal to L
        scan_degree_classes(ex61.lattice, 10, (1, 1, 1, 2))


def test_scan_degree_classes_negative_bound(ex63):
    L, w = ex63.lattice, ex63.functional
    for bound in (-1, -5):
        with pytest.raises(ValueError, match="nonnegative"):
            scan_degree_classes(L, bound, w)
        with pytest.raises(ValueError):
            betti_scan(L, bound, functional=w)
    (fib,) = scan_degree_classes(L, 0, w).fibers
    assert fib.degree.representative == (0,) * 5 and fib.members == ((0,) * 5,)


def test_scan_takes_only_integers():
    """A bound or a functional entry that is no int (a bool counts as
    none) is bad input: ValueError up front, from the scan and from every
    reader that runs it, not a TypeError from inside the member packing."""
    from latticescarf.scarf import (
        enumerate_scarf_poset,
        indispensable_binomials,
        minimal_generators,
    )

    L = LatticeBasis([(1, -1)])
    readers = (
        scan_degree_classes,
        betti_scan,
        enumerate_scarf_poset,
        minimal_generators,
        indispensable_binomials,
    )
    bad = [(4.0, None), ("4", None), (True, None), (4, (1.0, 1.0)), (4, (True, True))]
    for bound, w in bad:
        for read in readers:
            with pytest.raises(ValueError, match="must be integers"):
                read(L, bound, functional=w)
    assert len(scan_degree_classes(L, 4, functional=(1, 1))) == 5


def test_euler_characteristic(suite):
    for data in suite.values():
        for fib in catalog_fibers(data):
            for K in (gcd_complex(fib), support_complex(fib)):
                chi_f, chi_h = euler_characteristic_checks(K)
                assert chi_f == chi_h


def test_rational_vs_finite_field_scans(ex61, ex63):
    for data in (ex61, ex63):
        Tq = data.table
        Tp = betti_scan(data.lattice, data.bound, field=32003, functional=data.functional)
        assert {(i, b.key): v for (i, b), v in Tq.entries.items()} == {
            (i, b.key): v for (i, b), v in Tp.entries.items()
        }


@pytest.mark.parametrize("field", ["q", 2, 32003])
def test_mask_homology_matches_face_oracle_on_carried_fibers(suite, field):
    """On every carried fiber of the three fixtures at their bounds and of
    the semigroup <3,5,7,11,13> at bound 40, and on every fiber that the
    scan drops there (helpers.full_fibers holds both), the mask routine
    (GF(2) bitset ranks with exact corrections over Q, bitset ranks
    alone over GF(2), exact sparse elimination over GF(32003)) equals the
    face-tuple oracle key for key."""
    A = SemigroupMatrix([(3, 5, 7, 11, 13)])
    problems = [(name, d.lattice, d.bound, d.functional) for name, d in suite.items()]
    problems.append(("<3,5,7,11,13>", lattice_from_semigroup(A), 40, A.column_sums()))
    for name, L, bound, w in problems:
        for _b, _s, fib in full_fibers(L, bound, w):
            want = complex_homology_dims(support_complex(fib), field)
            got = reduced_homology_dims(fib.masks, field)
            assert list(got.items()) == list(want.items()), (
                name,
                fib.degree.representative,
            )


def test_rational_vs_finite_field_ex64_catalog(ex64):
    for fib in catalog_fibers(ex64):
        masks = {support_mask(m) for m in fib}
        assert reduced_homology_dims(masks, "q") == reduced_homology_dims(masks, 32003)
    big = enumerate_fiber(ex64.lattice, (2, 2, 0, 0, 0, 0))
    masks = {support_mask(m) for m in big}
    assert reduced_homology_dims(masks, "q") == reduced_homology_dims(masks, 32003)


def test_betti_table_get_and_degrees(ex63):
    T = ex63.table
    b = DegreeClass(ex63.lattice, ABD)
    assert T.get(1, b) == 1
    assert T.get(5, b) == 0
    assert b in T.degrees(1)
    assert T.homological_degrees() == [1, 2, 3]


def test_betti_table_answers_only_within_its_bound(ex61):
    """A table answers only what its scan decided: on ex61 scanned to 10
    under (4, 4, 4, 4), (0, 0, 0, 0) <= (5, 0, 0, 0) needs a monomial of
    value 20, and beta_1 at (0, 1, 0, 2), value 12, is 1, so leq and get
    raise there rather than answer False and 0.  get raises for a class
    over another lattice too."""
    L = ex61.lattice
    T = betti_scan(L, 10, functional=(4, 4, 4, 4))
    zero, far = DegreeClass(L, (0, 0, 0, 0)), DegreeClass(L, (5, 0, 0, 0))
    assert class_leq(zero, far)
    with pytest.raises(ValueError, match="exceeds the scan bound"):
        T.leq(zero, far)
    assert not T.leq(far, zero)
    b = DegreeClass(L, (0, 1, 0, 2))
    assert betti_at(enumerate_fiber(L, b.representative), 1) == 1
    with pytest.raises(ValueError, match="exceeds the scan bound"):
        T.get(1, b)
    assert T.get(1, DegreeClass(L, (0, 1, 0, 1))) == 0
    other = DegreeClass(LatticeBasis([(1, -1, 0, 0)]), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="different lattices"):
        T.get(1, other)


# <m, m+1, ..., 2m-1> and a bound, in its own grading, through which every
# Betti number of the interval semigroup is scanned
INTERVAL_SEMIGROUP_BOUNDS = ((3, 30), (4, 40), (5, 60), (6, 80), (7, 100), (8, 120), (9, 130))


@pytest.mark.parametrize(
    "m, bound, field",
    [(m, bound, field) for m, bound in INTERVAL_SEMIGROUP_BOUNDS for field in ("q", 2)]
    + [(m, bound, 32003) for m, bound in INTERVAL_SEMIGROUP_BOUNDS if m <= 8],
)
def test_interval_semigroup_betti_totals_closed_form(m, bound, field):
    """The interval semigroup <m, ..., 2m-1> has Betti totals
    beta_i = i * C(m, i + 1), 1 <= i <= m - 1: the Eagon-Northcott numbers
    of a 2 x m matrix (Gimenez, Sengupta and Srinivasan, J. Algebra 388,
    2013).  The oracle is one binomial coefficient, and shares no code
    with the package."""
    A = SemigroupMatrix([tuple(range(m, 2 * m))])
    T = betti_scan(lattice_from_semigroup(A), bound, field=field, functional=A.column_sums())
    totals = {i: T.total(i) for i in T.homological_degrees()}
    assert totals == {i: i * math.comb(m, i + 1) for i in range(1, m)}


def codimension_two_invariants(L, bound, w):
    """(r, totals over Q, over GF(2), over GF(32003)) of one scan: r
    minimal generators, each table's totals as a tuple over i = 1, 2, ...
    GF(2) ranks unsigned boundaries; GF(32003) ranks the signed ones."""
    from latticescarf.scarf import binomials

    atlas = scan_degree_classes(L, bound, w)
    out = [len(binomials(atlas)[0])]
    for field in ("q", 2, 32003):
        T = betti_table(atlas, field)
        top = max(T.homological_degrees(), default=0)
        out.append(tuple(T.total(i) for i in range(1, top + 1)))
    return tuple(out)


def codimension_two_form(r, totals):
    """Which of the two codimension-2 closed forms totals has, or None:
    (r, r - 1) when I_L is Cohen-Macaulay (Hilbert-Burch), else
    (r, 2r - 4, r - 3) with r >= 4 (Peeva and Sturmfels, "Syzygies of
    codimension 2 lattice ideals", Math. Z. 229, 1998)."""
    if totals == (r, r - 1):
        return "CM"
    if r >= 4 and totals == (r, 2 * r - 4, r - 3):
        return "not CM"
    return None


def test_codimension_two_betti_totals_closed_form(monkeypatch):
    """A rank-2 lattice in Z^4 has a codimension-2 lattice ideal, whose r
    minimal generators fix its Betti totals up to Cohen-Macaulayness.  The
    oracle is the closed form, sharing no code with the ranks, over Q,
    GF(2) and GF(32003), on: every 2 x 4 lattice of the benchmark's random
    pool at twice its scan bound, each checked complete against three
    times that bound; the curves (t^d, t^(d-1) s, t s^(d-1), s^d) in P^3,
    d = 4..15, which read (d, 2d - 4, d - 3) at every bound from d + 1 to
    d + 4 of the standard grading; and the rational quartic (ex61's
    semigroup) at bound 20, which reads (4, 4, 1)."""
    workloads, _ = benchmark_workloads(monkeypatch)
    forms = collections.Counter()
    for index in range(0, workloads.RANDOM_POOL, 2):
        L = workloads.sample_pool_lattice(index, collections.Counter())
        assert L.n == 4
        w = L.functional
        bound = workloads.scan_bound(L, w)
        r, over_q, *others = got = codimension_two_invariants(L, 2 * bound, w)
        if codimension_two_invariants(L, 3 * bound, w) != got:
            pytest.fail("bound not complete: pool lattice %d at %d" % (index, 2 * bound))
        assert others == [over_q, over_q], index
        forms[codimension_two_form(r, over_q)] += 1
    assert forms == {"CM": 41, "not CM": 7}, forms
    for d in range(4, 16):
        A = SemigroupMatrix([[d, d - 1, 1, 0], [0, 1, d - 1, d]])
        L = lattice_from_semigroup(A)
        assert L.functional == (1, 1, 1, 1)
        want = (d, 2 * d - 4, d - 3)
        for bound in range(d + 1, d + 5):
            got = codimension_two_invariants(L, bound, L.functional)
            assert got == (d, want, want, want), (d, bound)
    A = SemigroupMatrix([[4, 3, 1, 0], [0, 1, 3, 4]])
    quartic = codimension_two_invariants(lattice_from_semigroup(A), 20, A.column_sums())
    assert quartic == (4, (4, 4, 1), (4, 4, 1), (4, 4, 1))


@pytest.mark.parametrize("field", ["q", 2, 3, 32003])
def test_betti_table_matches_squarefree_divisor_oracle(suite, field):
    """betti_table equals helpers.squarefree_betti_oracle, which reads
    beta_{i,b} from the faces F with b - e_F scanned, at every scanned
    class and every i, zeros included: on the fixtures at their bounds,
    the benchmark's three semigroups at small bounds, and the lattices
    with two torsion coordinates or non-diagonal torsion Hermite forms."""
    problems = [(name, d.lattice, d.bound, d.functional) for name, d in suite.items()]
    for gens, bound in (((3, 5, 7, 11, 13), 50), (tuple(range(5, 12)), 36), (tuple(range(7, 14)), 40)):
        A = SemigroupMatrix([gens])
        problems.append((repr(gens), lattice_from_semigroup(A), bound, A.column_sums()))
    for rows in TWO_TORSION_FIELDS + NON_DIAGONAL_TORSION:
        L = LatticeBasis(rows)
        problems.append((repr(rows), L, 2 * small_scan_bound(L), L.functional))
    nonzero = 0
    for where, L, bound, w in problems:
        want = squarefree_betti_oracle(L, bound, w, field)
        got = dict.fromkeys(want, 0)
        for (i, b), dim in betti_table(scan_degree_classes(L, bound, w), field).entries.items():
            got[(i, b.key)] = dim
        assert got == want, where
        nonzero += sum(map(bool, want.values()))
    assert nonzero > 100, nonzero
