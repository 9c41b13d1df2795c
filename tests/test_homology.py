import random

import pytest

from helpers import catalog_fibers, check_gcd_components, euler_characteristic_checks
from latticescarf.fibers import enumerate_fiber
from latticescarf.homology import (
    SimplicialComplex,
    betti_at,
    betti_scan,
    connected_components,
    gcd_complex,
    gcd_components,
    minimal_betti_degrees,
    reduced_homology_dims,
    scan_degree_classes,
    support_complex,
)
from latticescarf.lattice_core import LatticeBasis, class_of

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


def test_facet_domination():
    K = SimplicialComplex(("x", "y"), [(0, 1), (0,)])
    assert K.facets == (frozenset({0, 1}),)
    assert K.f_vector() == (2, 1)


def test_empty_facets_are_stripped():
    K = SimplicialComplex(("x",), [()])
    assert K.facets == ()
    assert reduced_homology_dims(K) == {-1: 1}


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
    assert reduced_homology_dims(K) == {-1: 0, 0: 0}


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
    assert reduced_homology_dims(K) == {-1: 1}


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
    two_edges = SimplicialComplex(tuple("abcd"), [(0, 1), (2, 3)])
    assert reduced_homology_dims(two_edges)[0] == 1
    hollow = SimplicialComplex(tuple("abc"), [(0, 1), (0, 2), (1, 2)])
    dims = reduced_homology_dims(hollow)
    assert dims[1] == 1 and dims[0] == 0
    solid_plus_point = SimplicialComplex(tuple("abcd"), [(0, 1, 2), (3,)])
    dims = reduced_homology_dims(solid_plus_point)
    assert dims[0] == 1
    assert all(v == 0 for j, v in dims.items() if j != 0)
    # 6 vertices, 3 facets: homology goes through the nerve, a hollow triangle
    ring = SimplicialComplex(tuple(range(6)), [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
    dims = reduced_homology_dims(ring)
    assert dims[1] == 1
    assert all(v == 0 for j, v in dims.items() if j != 1)


def test_homology_field_dependence_rp2():
    K = SimplicialComplex(tuple(range(6)), RP2_FACETS)
    assert K.f_vector() == (6, 15, 10)
    over_q = reduced_homology_dims(K, "q")
    assert all(v == 0 for v in over_q.values())
    over_2 = reduced_homology_dims(K, 2)
    assert over_2[1] == 1 and over_2[2] == 1


def test_field_validation():
    K = SimplicialComplex(("x",), [(0,)])
    for bad in ("x", 1, 0, -7, 4, 32001, True):
        with pytest.raises(ValueError):
            reduced_homology_dims(K, bad)
    reduced_homology_dims(K, "Q")
    reduced_homology_dims(K, 32003)


def test_betti_scan_composite_field(ex63):
    with pytest.raises(ValueError):
        betti_scan(ex63.lattice, 40, field=4, functional=ex63.functional)


def test_betti_at(ex63, ex64):
    assert betti_at(ex63.lattice, 1, ABD) == 1
    assert betti_at(ex63.lattice, 1, (1, 0, 0, 0, 0)) == 0
    assert betti_at(ex64.lattice, 2, (2, 2, 0, 0, 0, 0)) == 2
    with pytest.raises(ValueError):
        betti_at(ex63.lattice, 0, ABD)


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
    assert len(got) == len(got.classes) == len(got.cones)
    # sigma values are the functional applied to the representative
    for b, s in got.classes:
        assert s == sum(w * x for w, x in zip(ex61.functional, b.representative))
    assert [t[:2] for t in got.fibers] == [
        (b, s) for (b, s), cone in zip(got.classes, got.cones) if not cone
    ]
    for b, _s, fib in got.fibers:
        assert fib.degree is b and b.representative in fib
    assert [s for _b, s in got.classes] == sorted(s for _b, s in got.classes)
    keys = {b.key for b, _s in got.classes}
    brute = set()
    for u in itertools.product(range(6), repeat=4):
        if sum(w * x for w, x in zip(ex61.functional, u)) <= 20:
            brute.add(L.canonical_key(u))
    assert keys == brute


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
    ((b, s, fib),) = scan_degree_classes(L, 0, w).fibers
    assert s == 0 and fib.members == ((0, 0, 0, 0, 0),)


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


def test_rational_vs_finite_field_ex64_catalog(ex64):
    for fib in catalog_fibers(ex64):
        K = gcd_complex(fib)
        assert reduced_homology_dims(K, "q") == reduced_homology_dims(K, 32003)
    big = gcd_complex(enumerate_fiber(ex64.lattice, (2, 2, 0, 0, 0, 0)))
    assert reduced_homology_dims(big, "q") == reduced_homology_dims(big, 32003)


def test_betti_table_get_and_degrees(ex63):
    T = ex63.table
    b = class_of(ex63.lattice, ABD)
    assert T.get(1, b) == 1
    assert T.get(5, b) == 0
    assert b in T.degrees(1)
    assert T.homological_degrees() == [1, 2, 3]
