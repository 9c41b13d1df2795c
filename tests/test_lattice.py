import itertools
import json
import math
import random
from operator import mul

import pytest

from helpers import full_fibers
from latticescarf import cli, lattice_core
from latticescarf.fibers import class_leq, enumerate_fiber
from latticescarf.homology import betti_scan, scan_degree_classes
from latticescarf.lattice_core import (
    CosetPacking,
    DegreeClass,
    LatticeBasis,
    NotPointedError,
    SemigroupMatrix,
    contains,
    lattice_from_semigroup,
    positive_functional,
)
from latticescarf.linalg import integer_kernel, solve_combination

EX63_PAPER_ROWS = [(1, -2, 1, 0, 0), (0, 1, -2, 1, 0), (0, 2, 1, 0, -2)]


def test_pointedness_basics():
    assert LatticeBasis([(1, -1)]).functional == (1, 1)
    with pytest.raises(NotPointedError):
        LatticeBasis([(1, 1)])
    assert issubclass(NotPointedError, ValueError)


def test_pointedness_box_oracle(ex63):
    L = ex63.lattice
    # no small integer combination of the rows is nonnegative and nonzero
    for z in itertools.product(range(-6, 7), repeat=L.r):
        v = tuple(
            sum(zi * row[j] for zi, row in zip(z, L.rows)) for j in range(L.n)
        )
        if all(x >= 0 for x in v):
            assert not any(v), "nonzero nonnegative vector %r from %r" % (v, z)


def _pointed_oracle(rows):
    """Exact pointedness of a rank-2 lattice with rows in [-3, 3]^n: L is
    pointed iff no z != 0 has z * rows >= 0.  That cone, when nonzero,
    has a boundary ray +-(a_2, -a_1) for some column a, and those rays
    all lie in [-3, 3]^2, so the box search decides it."""
    for z in itertools.product(range(-3, 4), repeat=2):
        if z == (0, 0):
            continue
        if all(z[0] * x + z[1] * y >= 0 for x, y in zip(*rows)):
            return False
    return True


def test_pointedness_matches_box_oracle():
    """LatticeBasis(rows) returns exactly when the box oracle finds the
    lattice pointed, and its functional is then >= 1 in every entry,
    primitive and orthogonal to every row."""
    rng = random.Random(20261018)
    seen = {True: 0, False: 0}
    while sum(seen.values()) < 300:
        n = rng.choice((3, 4, 5))
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2)]
        try:
            L = LatticeBasis(rows)
        except NotPointedError:
            pointed = False
        except ValueError:
            continue  # dependent rows
        else:
            pointed = True
            w = L.functional
            assert min(w) >= 1 and math.gcd(*w) == 1, (rows, w)
            assert not any(sum(map(mul, w, row)) for row in rows), (rows, w)
        assert _pointed_oracle(rows) == pointed, rows
        seen[pointed] += 1
    assert min(seen.values()) >= 50, seen


def test_full_rank_lattice_is_not_pointed():
    for rows in ([(1, -1), (0, 1)], [(2, 1), (1, 1)]):
        with pytest.raises(NotPointedError, match="nonzero nonnegative vector"):
            LatticeBasis(rows)


def test_zero_lattice_needs_dimension():
    with pytest.raises(ValueError):
        LatticeBasis([])
    L = LatticeBasis([], n=3)
    assert L.r == 0 and L.n == 3
    assert L.functional == (1, 1, 1)


def test_basis_validation():
    with pytest.raises(ValueError):
        LatticeBasis([(1, -1), (2, -2)])  # dependent
    with pytest.raises(ValueError):
        LatticeBasis([(1, -1), (1, 0, 0)])
    with pytest.raises(ValueError):
        LatticeBasis([(True, False)])
    L = LatticeBasis([(1, -1)])
    with pytest.raises(ValueError):
        L.canonical_key((1, 2, 3))


def test_contains(ex63):
    L = ex63.lattice
    for row in EX63_PAPER_ROWS:
        assert contains(L, row)
    assert contains(L, (0, 0, 0, 0, 0))
    s = tuple(sum(col) for col in zip(*EX63_PAPER_ROWS))
    assert s == (1, 1, 0, 1, -2)
    assert contains(L, s)
    assert not contains(L, (1, 0, 0, 0, 0))
    assert not contains(L, (0, 0, 0, 0, 1))


def test_contains_own_rows(suite):
    for data in suite.values():
        for row in data.lattice.rows:
            assert contains(data.lattice, row)
            assert contains(data.lattice, tuple(-x for x in row))


def test_degree_class_equality(ex63):
    L = ex63.lattice
    abd = (1, 1, 0, 1, 0)
    ee = (0, 0, 0, 0, 2)
    assert DegreeClass(L, abd) == DegreeClass(L, ee)
    assert DegreeClass(L, abd) == DegreeClass(L, abd)
    bc = (0, 1, 1, 0, 0)
    ac = (1, 0, 1, 0, 0)
    assert DegreeClass(L, bc) != DegreeClass(L, ac)


def test_degree_class_as_dict_key(ex63):
    L = ex63.lattice
    d = {DegreeClass(L, (1, 1, 0, 1, 0)): "ten-eight"}
    assert d[DegreeClass(L, (0, 0, 0, 0, 2))] == "ten-eight"
    assert DegreeClass(L, (0, 1, 1, 0, 0)) not in d


def test_class_leq(ex63):
    L = ex63.lattice
    b66 = DegreeClass(L, (0, 1, 1, 0, 0))
    b108 = DegreeClass(L, (1, 1, 0, 1, 0))
    b84 = DegreeClass(L, (1, 0, 1, 0, 0))
    assert class_leq(b66, b108)
    assert class_leq(b66, b66)
    assert not class_leq(b84, b66)
    # the witness for b66 <= b108: their difference class holds the monomial b
    diff = DegreeClass(L, (1, 0, -1, 1, 0))
    assert (0, 1, 0, 0, 0) in enumerate_fiber(L, diff.representative)


def test_class_leq_different_lattices():
    L1 = LatticeBasis([(1, -1)])
    L2 = LatticeBasis([(2, -2)])
    with pytest.raises(ValueError):
        class_leq(DegreeClass(L1, (0, 0)), DegreeClass(L2, (0, 0)))


def test_class_leq_different_dimensions():
    d = DegreeClass(LatticeBasis((), n=2), (0, 0))
    b = DegreeClass(LatticeBasis((), n=3), (1, 0, 0))
    for x, y in ((d, b), (b, d)):
        with pytest.raises(ValueError, match="different lattices"):
            class_leq(x, y)


def test_betti_table_leq_rejects_other_lattices():
    """T.leq(d, b) answers only for classes over the table's lattice."""
    T = betti_scan(LatticeBasis([(1, -1, 0)]), 4, functional=(1, 1, 1))
    M = LatticeBasis([(0, 1, -1)])
    d, b = DegreeClass(M, (0, 1, 0)), DegreeClass(M, (1, 0, 0))
    assert not class_leq(d, b)
    N = LatticeBasis([(1, -1, 0, 0)])
    others = [
        (d, b),
        (DegreeClass(T.lattice, (0, 1, 0)), b),
        (d, DegreeClass(T.lattice, (1, 0, 0))),
        (DegreeClass(N, (0, 1, 0, 0)), DegreeClass(N, (1, 0, 0, 0))),
    ]
    for x, y in others:
        with pytest.raises(ValueError, match="different lattices"):
            T.leq(x, y)
    # the same basis built apart is the same lattice
    same = LatticeBasis([(1, -1, 0)])
    assert T.leq(DegreeClass(same, (0, 1, 0)), DegreeClass(same, (1, 0, 0)))


# Z/2 beside the free part, then (Z/2)^2 and Z/2 + Z/3
ONE_TORSION_FIELD = [(2, -2, 0)]
TWO_TORSION_FIELDS = ([(2, -2, 0, 0), (0, 0, 2, -2)], [(2, -2, 0, 0), (0, 0, 3, -3)])
# torsion blocks whose Hermite forms are not diagonal: H = ((2, 3), (0, 6))
# gives digits in [0, 2) and [0, 6), H = ((1, 2), (0, 8)) one in [0, 8)
NON_DIAGONAL_TORSION = ([(-4, 0, 4), (-2, 3, -1)], [(4, -4, -4, 4), (3, -3, 3, -1)])
TORSION_LATTICES = (ONE_TORSION_FIELD,) + TWO_TORSION_FIELDS + NON_DIAGONAL_TORSION


def _torsion_classes(L):
    """The classes of Z^n/L of finite order, by canonical key: those of
    the saturation of L, spanned by the kernel of L's kernel.  Its
    coefficients 0 ... 12 reach all of them when the torsion group has
    order at most 12, as for every lattice here."""
    sat = integer_kernel(integer_kernel(L.rows, L.n), L.n)
    return {
        L.canonical_key(tuple(sum(map(mul, c, col)) for col in zip(*sat)))
        for c in itertools.product(range(13), repeat=len(sat))
    }


def test_packed_keys_are_the_coset_classes(suite):
    """Two vectors get the same packed key iff they are congruent mod L
    (the same canonical key), and the key of v + e_j is that of v plus
    its move j, which depends on the key only through its torsion digits.
    The digit ranges [0, H[k][k]) multiply to the number of torsion
    classes."""
    rng = random.Random(17)
    lattices = [data.lattice for data in suite.values()]
    lattices += [LatticeBasis(rows) for rows in TORSION_LATTICES]
    hermite = [L._torsion[1] for L in lattices]
    assert [sum(H[k][k] > 1 for k in range(len(H))) for H in hermite] == [0, 0, 0, 1, 2, 2, 2, 1]
    for L in lattices:
        vectors = []
        for _ in range(150):
            v = tuple(rng.randint(-9, 9) for _ in range(L.n))
            z = [rng.randint(-2, 2) for _ in range(L.r)]
            u = tuple(x + sum(c * row[j] for c, row in zip(z, L.rows)) for j, x in enumerate(v))
            vectors += [v, u]
        # at this bound every coordinate of every v and v + e_j is in range
        w = L.functional
        bound = max(sum(wj * (abs(x) + 1) for wj, x in zip(w, v)) for v in vectors)
        P = CosetPacking(L, bound, w)
        pairs = {(P.pack(v), L.canonical_key(v)) for v in vectors}
        assert None not in {key for key, _ in pairs}
        assert len(pairs) == len({key for key, _ in pairs}) == len({k for _, k in pairs})
        assert len(pairs) < len(vectors)  # some vectors were congruent
        with pytest.raises(ValueError, match="wrong dimension"):
            P.pack((0,) * (L.n + 1))
        Y, H, _pivots = P._torsion
        if Y:
            assert math.prod(H[k][k] for k in range(len(H))) == len(_torsion_classes(L))
        for v in vectors:
            key = P.pack(v)
            for j, move in enumerate(P.moves(key & P.low, 1)):
                assert key + move == P.pack(v[:j] + (v[j] + 1,) + v[j + 1 :])


def _in_range(P, key):
    """Is key the packed key of some class: each torsion digit t_k below
    its H[k][k], each free field within R_k of its offset, and no bits
    above?"""
    H = P._torsion[1]
    if key < 0 or any(key >> s & mask >= H[k][k] for k, (s, mask) in enumerate(P._digits)):
        return False
    shifts = [s for _row, _R, s in P._fields]
    for (_row, R, s), top in zip(P._fields, shifts[1:] + [None]):
        mask = -1 if top is None else (1 << top - s) - 1  # the top field: all
        if abs((key >> s & mask) - (P._zero >> s & mask)) > R:
            return False
    return True


def _back_step_errors(L, bound, rng):
    """The (v, j) among vectors v with a free coordinate at -R_k or R_k
    where the back move from pack(v) misses: it must give pack(v - e_j)
    when that is in range, and a key of no class otherwise."""
    w = L.functional
    P = CosetPacking(L, bound, w)
    K = L._free
    # units[k]: a d with K d = e_k (the rows of K extend to a unimodular
    # matrix, so K maps Z^n onto Z^(n-r))
    units = [
        solve_combination([tuple(row[j] for row in K) for j in range(L.n)], e)
        for e in (tuple(int(i == k) for i in range(len(K))) for k in range(len(K)))
    ]
    errors, checked = [], 0
    for k, (_row, Rk, _s) in enumerate(P._fields):
        for edge in (-Rk, Rk):
            for _ in range(10):
                v = [rng.randint(-3, 3) for _ in range(L.n)]
                for i, (row, R, _s) in enumerate(P._fields):
                    want = edge if i == k else rng.randint(-R, R)
                    shift = want - sum(a * b for a, b in zip(row, v))
                    v = [x + shift * y for x, y in zip(v, units[i])]
                key = P.pack(v)
                if key is None:
                    raise AssertionError("vector %r is out of range" % (v,))
                for j, back in enumerate(P.moves(key & P.low, -1)):
                    stepped = P.pack(v[:j] + [v[j] - 1] + v[j + 1 :])
                    checked += stepped is None
                    missed = stepped is not None or _in_range(P, key + back)
                    if key + back != stepped and missed:
                        errors.append((tuple(v), j))
    return errors, checked


def test_back_moves_never_alias_a_class(suite, monkeypatch):
    """From a vector with a free coordinate at the edge of its range, the
    back move of e_j gives the key of v - e_j, or, when v - e_j is out of
    range, a key of no class: the guard bits keep the step from borrowing
    or carrying into a neighbouring field.  Without them (G_k = 0) some
    such step lands on the key of another class.  Bounds 1 to 40, on the
    fixtures and the torsion lattices."""
    rng = random.Random(29)
    lattices = [data.lattice for data in suite.values()]
    lattices += [LatticeBasis(rows) for rows in TORSION_LATTICES]
    # an unguarded step aliases only where 2 R_k lies within max_j |K[k][j]|
    # below a power of two, as on ex63 at bounds 1, 3, 6, 12 and 25
    problems = [(L, bound) for L in lattices for bound in range(1, 41)]
    outside = 0
    for L, bound in problems:
        errors, checked = _back_step_errors(L, bound, rng)
        assert errors == [], (L, errors[:3])
        outside += checked
    assert outside
    monkeypatch.setattr(lattice_core, "_guard", lambda row: 0)
    assert any(_back_step_errors(L, bound, rng)[0] for L, bound in problems)


def test_betti_table_leq_matches_class_leq(ex61):
    """T.leq(d, b) is class_leq(d, b) whenever sigma(b) - sigma(d) <=
    T.bound, over the classes of a scan at twice the bound, also where
    the packed coordinates of b - d leave the table's range; beyond the
    bound it raises ValueError, since the scan cannot tell."""
    problems = [(ex61.lattice, 4), (LatticeBasis(ONE_TORSION_FIELD), 5)]
    problems += [(LatticeBasis(rows), 3) for rows in TWO_TORSION_FIELDS + NON_DIAGONAL_TORSION]
    compared = beyond = outside = 0
    for L, bound in problems:
        w = L.functional
        T = betti_scan(L, bound, functional=w)
        packing = CosetPacking(L, bound, w)
        classes = [(b, s) for b, s, _fib in full_fibers(L, 2 * bound, w)]
        for d, sd in classes:
            for b, sb in classes:
                diff = tuple(x - y for x, y in zip(b.representative, d.representative))
                if sb - sd <= bound:
                    assert T.leq(d, b) == class_leq(d, b), (L, d, b)
                    compared += 1
                    outside += packing.pack(diff) is None
                else:
                    with pytest.raises(ValueError, match="exceeds the scan bound"):
                        T.leq(d, b)
                    beyond += 1
    assert compared and beyond and outside, (compared, beyond, outside)


def test_class_leq_is_partial_order(ex61):
    L = ex61.lattice
    classes = [b for b, _s, _fib in full_fibers(L, 20, ex61.functional)]
    T = betti_scan(L, 20, functional=ex61.functional)
    leq = {}
    for x in classes:
        for y in classes:
            leq[(x.key, y.key)] = class_leq(x, y)
            # the table's scanned-key lookup agrees with the FM test
            assert T.leq(x, y) == leq[(x.key, y.key)]
    for x in classes:
        assert leq[(x.key, x.key)]
    for x in classes:
        for y in classes:
            if leq[(x.key, y.key)] and leq[(y.key, x.key)]:
                assert x == y
    for x in classes:
        for y in classes:
            if not leq[(x.key, y.key)]:
                continue
            for z in classes:
                if leq[(y.key, z.key)]:
                    assert leq[(x.key, z.key)]


def test_lattice_from_semigroup_ex63(ex63):
    A = ex63.spec.semigroup
    L = lattice_from_semigroup(A)
    assert L.r == 3 and L.n == 5
    # same row space as the reference basis, both directions
    for row in EX63_PAPER_ROWS:
        assert solve_combination(L.rows, row) is not None
    for row in L.rows:
        assert solve_combination(EX63_PAPER_ROWS, row) is not None


def test_lattice_from_semigroup_identity():
    A = SemigroupMatrix([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    L = lattice_from_semigroup(A)
    assert L.r == 0 and L.n == 3


def test_lattice_from_semigroup_ex64(ex64):
    A = ex64.spec.semigroup
    L = lattice_from_semigroup(A)
    assert L.r == 5 and L.n == 6
    for row in L.rows:
        assert A.degree_of(row) == (0,)


def test_semigroup_matrix():
    A = SemigroupMatrix([(6, 4, 2, 0, 5), (0, 2, 4, 6, 4)])
    assert A.degree_of((1, 1, 0, 1, 0)) == (10, 8)
    assert A.column_sums() == (6, 6, 6, 6, 9)
    with pytest.raises(ValueError):
        SemigroupMatrix([(6, 0), (0, 0)])


def test_positive_functional(suite):
    for data in suite.values():
        L = data.lattice
        w = positive_functional(L)
        assert len(w) == L.n
        assert all(x >= 1 for x in w)
        for row in L.rows:
            assert sum(wi * xi for wi, xi in zip(w, row)) == 0


def test_positive_functional_zero_lattice():
    assert positive_functional(LatticeBasis([], n=4)) == (1, 1, 1, 1)


def test_positive_functional_of_the_fixtures(suite):
    want = {
        "ex61": (1, 1, 1, 1),
        "ex63": (2, 2, 2, 2, 3),
        "ex64": (39, 52, 65, 42, 56, 70),
    }
    for name, w in want.items():
        L = suite[name].lattice
        assert positive_functional(L) == w
        assert L.functional == w


def test_one_functional_solve_per_lattice(monkeypatch, tmp_path, capsys):
    calls = []
    solve = lattice_core.rational_point

    def counted(rows, nvars):
        calls.append(nvars)
        return solve(rows, nvars)

    monkeypatch.setattr(lattice_core, "rational_point", counted)
    L = LatticeBasis([(1, -2, 1)])
    assert len(calls) == 1
    assert positive_functional(L) == positive_functional(L) == (1, 1, 1)
    scan_degree_classes(L, 4)
    betti_scan(L, 4)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(NotPointedError, match="^lattice contains a nonzero nonnegative vector$"):
        LatticeBasis([(1, 1)])
    assert len(calls) == 1
    calls.clear()
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"lattice": [[1, -2, 1]]}))
    assert cli.main(["betti", "--spec", str(path), "--bound", "6"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_degree_class_repr_is_stable(ex63):
    L = ex63.lattice
    b = DegreeClass(L, (1, 1, 0, 1, 0))
    assert isinstance(b, DegreeClass)
    assert DegreeClass(L, b.representative) == b
