import itertools
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

import latticescarf

from latticescarf.fibers import (
    Fiber,
    MemberPacking,
    enumerate_fiber,
    gcd_of,
    support_mask,
)
from helpers import (
    basic_components_oracle,
    binomials_oracle,
    connected_components,
    full_fibers,
    gcd_complex,
    move_components,
    random_pointed_lattice,
    scan_problems,
    strongly_oracle,
    suite_b_lattices,
    translation_order_oracle,
)
from latticescarf.homology import (
    betti_at,
    betti_table,
    gcd_components,
    minimal_betti_degrees,
    scan_degree_classes,
)
from latticescarf.lattice_core import (
    DegreeClass,
    LatticeBasis,
    SemigroupMatrix,
    lattice_from_semigroup,
)
from latticescarf.scarf import (
    BasicComponent,
    LatticeSubset,
    algebraic_scarf_subcomplex,
    basic_components,
    binomials,
    bmax,
    build_generalized_scarf_complex,
    enumerate_scarf_poset,
    in_generalized_scarf,
    is_basic_fiber,
    monomials_of,
    scarf_poset,
    strongly_algebraic_subcomplex,
    vsupp,
)

ZERO5 = (0, 0, 0, 0, 0)
J1_VECTORS = (ZERO5, (0, 1, -2, 1, 0), (1, -1, -1, 1, 0))
J2_VECTORS = (ZERO5, (1, -1, -1, 1, 0), (1, -2, 1, 0, 0))

ABD = (1, 1, 0, 1, 0)
AC2 = (1, 0, 2, 0, 0)
B2C = (0, 2, 1, 0, 0)


def j1(lattice):
    return LatticeSubset(lattice, J1_VECTORS)


def test_lattice_subset_equality_needs_the_same_lattice():
    """Equal members over lattices of equal rows but different ambient
    dimension are different subsets."""
    zero2, zero3 = LatticeBasis([], n=2), LatticeBasis([], n=3)
    assert LatticeSubset(zero2, []) != LatticeSubset(zero3, [])
    assert LatticeSubset(zero2, []) == LatticeSubset(LatticeBasis([], n=2), [])


def test_lattice_subset_validates(ex63):
    with pytest.raises(ValueError):
        LatticeSubset(ex63.lattice, [(1, 0, 0, 0, 0)])
    J = j1(ex63.lattice)
    assert len(J.members) == 3
    assert ZERO5 in J.members


def test_bmax(ex63):
    assert bmax(j1(ex63.lattice)) == ABD
    assert bmax([ZERO5]) == ZERO5
    assert bmax([]) is None


def test_vsupp(ex63):
    J = j1(ex63.lattice)
    assert vsupp(J, J) == frozenset({0, 1, 2, 3})
    assert vsupp(J, []) == frozenset()
    assert vsupp([ZERO5], [ZERO5]) == frozenset()
    # nothing sits strictly below the formal bottom bmax([]) = None
    assert vsupp([], [(1, 0, 0, 0, 0)]) == frozenset()
    assert vsupp([], []) == frozenset()


def test_monomials_of(ex63):
    assert monomials_of(j1(ex63.lattice)) == (ABD, AC2, B2C)
    assert monomials_of([ZERO5]) == (ZERO5,)
    assert monomials_of([]) == ()
    assert monomials_of(LatticeSubset(ex63.lattice, [])) == ()
    J2 = LatticeSubset(ex63.lattice, J2_VECTORS)
    assert bmax(J2) == (1, 0, 1, 1, 0)
    C2 = monomials_of(J2)
    assert set(C2) == {(1, 0, 1, 1, 0), (0, 1, 2, 0, 0), (0, 2, 0, 1, 0)}
    # and that is the entire fiber of its degree
    assert enumerate_fiber(ex63.lattice, (1, 0, 1, 1, 0)).members == C2


def test_in_generalized_scarf(ex63):
    L = ex63.lattice
    assert in_generalized_scarf(j1(L))
    for row in L.rows:
        assert in_generalized_scarf(LatticeSubset(L, [row]))
    assert in_generalized_scarf(LatticeSubset(L, [ZERO5]))
    extra = (1, 1, 0, 1, -2)  # <= bmax(J1), so dropping it keeps bmax
    bigger = LatticeSubset(L, J1_VECTORS + (extra,))
    assert not in_generalized_scarf(bigger)
    with pytest.raises(TypeError):
        in_generalized_scarf(list(J1_VECTORS))


def test_in_generalized_scarf_translation_invariant(ex63):
    L = ex63.lattice
    rng = random.Random(3)
    for _ in range(10):
        shift = [rng.randint(-2, 2) for _ in range(L.r)]
        l = tuple(
            sum(s * row[j] for s, row in zip(shift, L.rows)) for j in range(L.n)
        )
        moved = LatticeSubset(L, [tuple(x + y for x, y in zip(v, l)) for v in J1_VECTORS])
        assert in_generalized_scarf(moved)
        assert monomials_of(moved) == monomials_of(j1(L))


def test_basic_components_10_8(ex63):
    comps = basic_components(enumerate_fiber(ex63.lattice, ABD))
    assert len(comps) == 1
    assert comps[0].monomials == (ABD, AC2, B2C)
    assert comps[0].cardinality == 3
    assert in_generalized_scarf(comps[0].witness)


def test_basic_components_6_6(ex63):
    comps = basic_components(enumerate_fiber(ex63.lattice, (0, 1, 1, 0, 0)))
    assert len(comps) == 1
    assert set(comps[0].monomials) == {(1, 0, 0, 1, 0), (0, 1, 1, 0, 0)}


def test_basic_components_182(ex64):
    comps = basic_components(enumerate_fiber(ex64.lattice, (2, 2, 0, 0, 0, 0)))
    assert len(comps) == 2
    assert sorted(c.cardinality for c in comps) == [3, 3]
    tri1 = {(2, 2, 0, 0, 0, 0), (3, 0, 1, 0, 0, 0), (0, 1, 2, 0, 0, 0)}
    tri2 = {(0, 0, 0, 0, 2, 1), (0, 0, 0, 1, 0, 2), (0, 0, 0, 3, 1, 0)}
    assert {frozenset(c.monomials) for c in comps} == {
        frozenset(tri1),
        frozenset(tri2),
    }


def test_basic_components_degenerate(ex63):
    L = ex63.lattice
    zero = basic_components(enumerate_fiber(L, ZERO5))
    assert len(zero) == 1
    assert zero[0].monomials == (ZERO5,)
    assert zero[0].witness.members == (ZERO5,)
    assert zero[0].whole
    assert basic_components(enumerate_fiber(L, (1, 0, 0, 0, 0))) == []
    empty = enumerate_fiber(L, (-1, 1, 0, 0, 0))
    assert len(empty) == 0
    assert basic_components(empty) == []
    assert not is_basic_fiber(empty)


def test_whole_marks_entire_fibers(ex63):
    L = ex63.lattice
    marked = 0
    for _b, _s, fib in full_fibers(L, 40, ex63.functional):
        for c in basic_components(fib):
            assert c.whole == (c.monomials == fib.members)
            marked += c.whole
            # whole takes no part in equality or hashing
            bare = BasicComponent(c.degree, c.monomials, c.witness)
            assert not bare.whole
            assert bare == c and hash(bare) == hash(c)
    assert marked == 5  # ex63's algebraic Scarf subcomplex has ranks (1, 3, 1)


@pytest.mark.parametrize(
    "members, free_puncture",
    [
        # a*d^3, b*c*d^2, c^4: only dropping b*c*d^2 leaves gcd 1
        (((1, 0, 0, 3), (0, 1, 1, 2), (0, 0, 4, 0)), 1),
        # a*b*d^3, a*c^3*d, b^2*c*d^2, b*c^4: only dropping b^2*c*d^2
        (((1, 1, 0, 3), (1, 0, 3, 1), (0, 2, 1, 2), (0, 1, 4, 0)), 2),
    ],
)
def test_basic_components_rejects_a_gcd_free_puncture(ex61, members, free_puncture):
    L = ex61.lattice
    fib = Fiber(DegreeClass(L, members[0]), members)
    assert fib == enumerate_fiber(L, members[0])
    (comp,) = connected_components(gcd_complex(fib))
    assert comp == fib.members and not any(gcd_of(comp))
    free = [
        k for k in range(len(comp)) if not any(gcd_of(comp[:k] + comp[k + 1 :]))
    ]
    assert free == [free_puncture]
    assert basic_components(fib) == []


def test_is_basic_fiber(ex63):
    L = ex63.lattice
    assert is_basic_fiber(enumerate_fiber(L, (1, 0, 1, 1, 0)))  # (8,10)
    assert not is_basic_fiber(enumerate_fiber(L, ABD))  # (10,8) has an extra vertex
    assert is_basic_fiber(enumerate_fiber(L, (0, 1, 1, 0, 0)))


def test_three_element_basic_fibers_ex64(ex64):
    L = ex64.lattice
    found = set()
    for b, _s, fib in full_fibers(L, ex64.bound, ex64.functional):
        if len(fib) == 3 and is_basic_fiber(fib):
            found.add(ex64.semigroup_degree(b))
    assert found == {(169,), (196,)}


def test_scarf_poset_ex63(ex63):
    P = ex63.poset
    assert len(P) == 6
    assert P.max_cardinality() == 3
    assert len(P.by_cardinality(1)) == 1
    assert len(P.by_cardinality(2)) == 3
    assert len(P.by_cardinality(3)) == 2
    deg2 = {ex63.semigroup_degree(c.degree) for c in P.by_cardinality(2)}
    assert deg2 == {(6, 6), (8, 4), (4, 8)}
    deg3 = {ex63.semigroup_degree(c.degree) for c in P.by_cardinality(3)}
    assert deg3 == {(10, 8), (8, 10)}


def test_scarf_poset_translation_order(ex63):
    P = ex63.poset
    elems = list(P.elements)
    lo = next(
        i
        for i, c in enumerate(elems)
        if ex63.semigroup_degree(c.degree) == (6, 6)
    )
    hi = next(
        i
        for i, c in enumerate(elems)
        if ex63.semigroup_degree(c.degree) == (10, 8)
    )
    # multiplying {ad, bc} by the variable b lands inside {abd, ac^2, b^2c}
    assert (lo, hi) in P.leq
    assert (hi, lo) not in P.leq


def test_scarf_poset_zero_lattice():
    L = LatticeBasis([], n=3)
    P = enumerate_scarf_poset(L, 10)
    assert len(P) == 1
    assert P.elements[0].monomials == ((0, 0, 0),)
    assert P.leq == frozenset()


def test_scarf_poset_inherits_the_scan_order(suite):
    """scarf_poset sorts only within a fiber and takes the fibers in the
    scan's (value, key) order; its elements are still in (functional
    value, degree key, monomials) order, they are every basic component
    of the full fibers, and it equals enumerate_scarf_poset.  On the
    fixtures at their bounds and suite (b)'s first 10 lattices."""
    lattices = itertools.islice(suite_b_lattices(random.Random(101)), 10)
    for where, L, bound, w in scan_problems(suite, lattices):

        def order(c):
            rep = c.degree.representative
            return sum(x * y for x, y in zip(w, rep)), c.degree.key, c.monomials

        P = scarf_poset(scan_degree_classes(L, bound, w))
        got = [order(c) for c in P.elements]
        assert got == sorted(got), where
        fibers = full_fibers(L, bound, w)
        full = [order(c) for _b, _s, fib in fibers for c in basic_components(fib)]
        assert got == sorted(full), where
        Q = enumerate_scarf_poset(L, bound, w)
        assert (Q.elements, Q.leq) == (P.elements, P.leq), where


def test_translation_order_matches_the_eager_oracle(suite):
    """P.leq, built on its first read, holds the pairs of the eager
    translation loop (helpers.translation_order_oracle), and a second
    read returns the same set.  On the fixtures at their bounds and
    suite (b)'s first 10 lattices."""
    lattices = itertools.islice(suite_b_lattices(random.Random(101)), 10)
    pairs = 0
    for where, L, bound, w in scan_problems(suite, lattices):
        P = scarf_poset(scan_degree_classes(L, bound, w))
        assert P.leq == translation_order_oracle(P.elements), where
        assert P.leq is P.leq, where
        pairs += len(P.leq)
    assert pairs


def test_translation_order_checks_antisymmetry(ex61, monkeypatch):
    """With every translate test answering True the order has both (i, j)
    and (j, i) for two components of one cardinality: building the poset
    still succeeds, and reading its order raises."""
    from latticescarf import scarf

    monkeypatch.setattr(scarf, "_translate_into", lambda small, big: True)
    P = enumerate_scarf_poset(ex61.lattice, ex61.bound, ex61.functional)
    assert len(P.by_cardinality(2)) > 1
    for _read in range(2):
        with pytest.raises(RuntimeError, match="not antisymmetric"):
            P.leq


def test_distinct_mask_readers_match_the_gcd_complex_oracle(suite):
    """basic_components (monomials, witnesses, whole flags, order),
    binomials and gcd_components read a scanned fiber's distinct masks
    (Fiber.mask_unions), and equal oracles built on the gcd complex itself:
    on every carried fiber of the fixtures at their bounds and of suite
    (b)'s first 10 lattices, each reader on fibers fresh from a scan.
    Among the components are some with a repeated mask and at most n
    distinct ones, and some of more than n masks, none repeated: each of
    the two rejections basic_components takes before it gathers a member
    is met alone.

    The two readers that sit on the Betti table equal their definitions
    there too: both strong subcomplexes equal strongly_oracle (class_leq
    and T.entries, no BettiTable.leq) and contain the algebraic Scarf
    subcomplex; and every carried fiber of two members in two gcd
    components has a minimal 1-Betti degree, which binomials assumes."""
    lattices = itertools.islice(suite_b_lattices(random.Random(109)), 10)
    repeated = wide = 0
    for where, L, bound, w in scan_problems(suite, lattices):
        atlas = scan_degree_classes(L, bound, w)
        assert binomials(atlas) == binomials_oracle(atlas), where
        T = betti_table(atlas)
        minimal = set(minimal_betti_degrees(T, 1))
        for fib in atlas.fibers:
            if len(fib) == 2 and len(fib.mask_unions[1]) == 2:
                assert fib.degree in minimal, (where, fib.degree)
        X = build_generalized_scarf_complex(scarf_poset(atlas))
        S = algebraic_scarf_subcomplex(X)
        for mode in ("strict", "paper-example"):
            SS = strongly_algebraic_subcomplex(X, T, mode)
            assert list(SS.basis) == strongly_oracle(X, T, mode), (where, mode)
            for i, cells in enumerate(S.basis):
                assert set(cells) <= set(SS.basis[i]), (where, mode, i)
        for fib in scan_degree_classes(L, bound, w).fibers:
            got = [
                (c.monomials, c.witness.members, c.whole)
                for c in basic_components(fib)
            ]
            assert got == basic_components_oracle(L, fib), (where, fib.degree)
        for fib in scan_degree_classes(L, bound, w).fibers:
            comps = connected_components(gcd_complex(fib))
            assert gcd_components(fib) == comps, (where, fib.degree)
            for comp in comps if len(fib) > 2 else ():
                distinct = len({support_mask(m) for m in comp})
                repeated += distinct < len(comp) and distinct <= L.n
                wide += distinct == len(comp) > L.n
    assert repeated and wide, (repeated, wide)


def test_generators_leave_one_move_component_per_generator(suite):
    """A generator oracle that shares no scan code (Diaconis-Sturmfels,
    Ann. Statist. 26, 1998): binomials generate I_L iff their moves
    connect every fiber, and minimally iff at each degree b the moves of
    the other degrees leave fiber(b) in (generators at b) + 1 components.
    Every fiber within the bound comes from helpers.full_fibers, and the
    moves of a degree other than b that apply to fiber(b) are all of
    degrees below b, so within the bound.  On the fixtures at their bounds
    and 60 seeded 2 x 4 lattices at small_scan_bound."""
    rng = random.Random(5)
    lattices = [(k, random_pointed_lattice(rng, 2, 4)) for k in range(60)]
    checked = 0
    for where, L, bound, w in scan_problems(suite, lattices):
        generators = binomials(scan_degree_classes(L, bound, w))[0]
        count = Counter(b.key for b, _pair in generators)
        for b, _s, fib in full_fibers(L, bound, w):
            moves = [pair for d, pair in generators if d.key != b.key]
            got = move_components(fib, moves)
            assert got == count[b.key] + 1, (where, b.representative, got)
            checked += 1
    assert checked


def test_scarf_poset_deterministic(ex64):
    P = ex64.poset
    Q = enumerate_scarf_poset(ex64.lattice, ex64.bound, ex64.functional)
    assert [c.monomials for c in P.elements] == [c.monomials for c in Q.elements]
    assert P.leq == Q.leq


def test_distinct_components_never_merge(ex64):
    # the two components of degree 182 are not translates of one another
    # and both survive in the poset
    P = ex64.poset
    at182 = [
        c
        for c in P.elements
        if ex64.semigroup_degree(c.degree) == (182,)
    ]
    assert len(at182) == 2
    assert at182[0].monomials != at182[1].monomials


def test_witness_check_survives_optimize():
    # python -O strips assert statements; the witness re-check must still run
    code = "\n".join(
        [
            "from latticescarf import scarf",
            "from latticescarf.fixtures import fixture_problem",
            "scarf._in_generalized_scarf = lambda J, fib: False",
            "L = fixture_problem('ex63').lattice",
            "fib = scarf.enumerate_fiber(L, %r)" % (ABD,),
            "if len(fib) <= 2:",
            "    raise SystemExit('fiber too small: %d' % len(fib))",
            "try:",
            "    scarf.basic_components(fib)",
            "except RuntimeError as e:",
            "    print('raised: %s' % e)",
        ]
    )
    src = str(pathlib.Path(latticescarf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised: recovered witness failed membership"


# the numerical semigroups of the benchmark and the bounds it scans them at
BENCHMARK_SEMIGROUPS = (
    ((3, 5, 7, 11, 13), (40, 50, 60, 70)),
    ((5, 6, 7, 8, 9, 11), (30, 32, 34, 38)),
    (tuple(range(7, 14)), (34, 36, 37, 38)),
)

FIELDS = ("q", 2, 32003)


def benchmark_problems(suite):
    """(where, L, bound, functional): the fixtures at their bounds, then
    the benchmark's 12 semigroup scans."""
    problems = [(name, d.lattice, d.bound, d.functional) for name, d in suite.items()]
    for gens, bounds in BENCHMARK_SEMIGROUPS:
        A = SemigroupMatrix([gens])
        L, w = lattice_from_semigroup(A), A.column_sums()
        problems += [((gens, bound), L, bound, w) for bound in bounds]
    return problems


def test_the_order_of_reads_changes_no_answer(suite):
    """An atlas builds its fibers on their first read, and that changes no
    answer: the Betti tables over Q, GF(2) and GF(32003) read before it
    equal those read after it, the fibers come with the degrees in their
    order, and the poset and the binomials equal those of a fresh atlas
    that no Betti table read first.  On the fixtures at their bounds and
    the benchmark's 12 semigroup scans."""
    for where, L, bound, w in benchmark_problems(suite):
        atlas = scan_degree_classes(L, bound, w)
        before = [betti_table(atlas, f).entries for f in FIELDS]
        assert before[0], where
        assert [fib.degree for fib in atlas.fibers] == list(atlas.degrees), where
        assert [betti_table(atlas, f).entries for f in FIELDS] == before, where
        poset, pair = scarf_poset(atlas), binomials(atlas)
        fresh = scan_degree_classes(L, bound, w)
        want = scarf_poset(fresh)
        assert (poset.elements, poset.leq) == (want.elements, want.leq), where
        assert pair == binomials(fresh), where


def test_the_point_query_agrees_with_the_scan(suite):
    """betti_at of one Fiber equals the scan's Betti table at its degree,
    for i = 1 ... n over Q, GF(2) and GF(32003), on every nonempty fiber
    within the bound (helpers.full_fibers), so also on the classes the
    scan does not carry, which must read 0.  On the fixtures at their
    bounds and the benchmark's 12 semigroup scans."""
    for where, L, bound, w in benchmark_problems(suite):
        atlas = scan_degree_classes(L, bound, w)
        tables = {f: betti_table(atlas, f) for f in FIELDS}
        for b, _s, fib in full_fibers(L, bound, w):
            for f, T in tables.items():
                got = [betti_at(fib, i, f) for i in range(1, L.n + 1)]
                want = [T.get(i, fib.degree) for i in range(1, L.n + 1)]
                assert got == want, (where, b.representative, f)


def test_atlas_readers_decode_nothing(ex64, monkeypatch):
    """ex64's scan decodes no member; the first read of atlas.fibers
    decodes its 60 carried fibers, 1 317 members, once each, and a second
    read builds nothing.  The poset and the binomials then read those
    tuples and decode no member again.  binomials gives one generator per
    gcd component beyond the first of each fiber."""
    unpack = MemberPacking.unpack
    decoded = []

    def counted(self, packed):
        decoded.append(len(packed))
        return unpack(self, packed)

    monkeypatch.setattr(MemberPacking, "unpack", counted)
    atlas = scan_degree_classes(ex64.lattice, ex64.bound, ex64.functional)
    assert decoded == []
    assert len(atlas.fibers) == 60 and atlas.fibers is atlas.fibers
    assert (len(decoded), sum(decoded)) == (60, 1317)
    decoded.clear()
    poset = scarf_poset(atlas)
    generators, indispensables = binomials(atlas)
    assert decoded == [] and len(poset) and indispensables
    unions = [len(f.mask_unions[1]) for f in atlas.fibers]
    assert len(generators) == sum(k - 1 for k in unions if k > 1)
