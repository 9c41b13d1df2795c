import itertools
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from helpers import integer_points, rank_mod_p, rank_rational
from latticescarf.linalg import (
    _normalize_row,
    canonical_rep,
    fm_eliminate,
    integer_kernel,
    rank_exact,
    rank_gf2,
    rational_point,
    row_hermite,
    size_reduce,
    solve_combination,
)

rng = random.Random(20260817)


def random_matrix(r, n, lo=-6, hi=6):
    return [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(r)]


def matmul(U, A):
    return [
        tuple(sum(U[i][k] * A[k][j] for k in range(len(A))) for j in range(len(A[0])))
        for i in range(len(U))
    ]


def test_row_hermite_properties():
    for _ in range(40):
        r = rng.randint(1, 4)
        n = rng.randint(1, 5)
        A = random_matrix(r, n)
        H, U, pivots = row_hermite(A, n)
        # H = U * A and U is unimodular (invertible over Z)
        assert matmul(U, A) == [tuple(row) for row in H]
        assert abs(sympy.Matrix(U).det()) == 1
        # pivots are positive, in strictly increasing columns, zero rows sink
        last = -1
        for i, j in enumerate(pivots):
            assert H[i][j] > 0
            assert j > last
            last = j
            assert all(H[i][k] == 0 for k in range(j))
            # entries above a pivot are reduced into [0, pivot)
            for above in range(i):
                assert 0 <= H[above][j] < H[i][j]
        for i in range(len(pivots), len(H)):
            assert all(x == 0 for x in H[i])


def test_row_hermite_known():
    H, U, pivots = row_hermite([(2, 4), (1, 1)], 2)
    assert pivots == (0, 1)
    assert H[0][0] > 0 and H[1][1] > 0
    # the row lattice of [[2,4],[1,1]] has determinant |2-4| = 2
    assert H[0][0] * H[1][1] == 2


def test_size_reduce_properties():
    """size_reduce of independent rows has the same Hermite form (so spans
    the same lattice), row norms nonincreasing, and no row that another
    row's nearest integer multiple would shorten: 2|<b_i,b_k>| <= |b_k|^2."""
    local = random.Random(2024)
    checked = 0
    while checked < 60:
        r = local.randint(2, 5)
        rows = [tuple(local.randint(-7, 7) for _ in range(6)) for _ in range(r)]
        if len(row_hermite(rows, 6)[2]) < r:
            continue
        B = size_reduce(rows)
        assert row_hermite(B, 6)[0] == row_hermite(rows, 6)[0]
        norms = [sum(x * x for x in b) for b in B]
        assert norms == sorted(norms, reverse=True)
        for bi, bk in itertools.permutations(B, 2):
            assert 2 * abs(sum(map(int.__mul__, bi, bk))) <= sum(x * x for x in bk)
        checked += 1


def test_size_reduce_known(ex64):
    assert size_reduce(()) == ()
    assert size_reduce([(14, 0, -13)]) == ((14, 0, -13),)
    assert size_reduce(ex64.lattice.rows) == (
        (0, -1, -2, 0, 2, 1),
        (2, 1, -2, 0, 0, 0),
        (0, 0, 0, 2, 1, -2),
        (1, -2, 1, 0, 0, 0),
        (0, 0, 0, 1, -2, 1),
    )


def test_integer_kernel_against_sympy():
    for _ in range(40):
        r = rng.randint(1, 3)
        n = rng.randint(2, 6)
        A = random_matrix(r, n)
        K = integer_kernel(A, n)
        M = sympy.Matrix(A)
        assert len(K) == n - M.rank()
        for v in K:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)
        # saturation: every primitive rational kernel vector is an integer
        # combination of the computed basis
        for ns in M.nullspace():
            denom = sympy.lcm([t.q for t in ns])
            prim = [int(t * denom) for t in ns]
            g = sympy.gcd(prim)
            prim = tuple(int(x // g) for x in prim)
            assert solve_combination(K, prim) is not None


def test_integer_kernel_zero_map():
    K = integer_kernel([], 3)
    assert len(K) == 3
    assert solve_combination(K, (5, -2, 7)) is not None


def test_solve_combination_roundtrip():
    for _ in range(40):
        r = rng.randint(1, 4)
        n = rng.randint(1, 5)
        A = random_matrix(r, n)
        coeffs = [rng.randint(-5, 5) for _ in range(r)]
        target = tuple(
            sum(c * row[j] for c, row in zip(coeffs, A)) for j in range(n)
        )
        u = solve_combination(A, target)
        assert u is not None
        got = tuple(sum(ui * row[j] for ui, row in zip(u, A)) for j in range(n))
        assert got == target


def test_solve_combination_unsolvable():
    # (1,1) is not an integer multiple of (2,2)
    assert solve_combination([(2, 2)], (1, 1)) is None
    # parity obstruction
    assert solve_combination([(2, 0), (0, 2)], (1, 0)) is None
    assert solve_combination([], (0, 0)) == ()
    assert solve_combination([], (1, 0)) is None


def test_canonical_rep_is_congruent_and_canonical():
    A = [(1, -2, 1), (0, 3, -1)]
    H, U, pivots = row_hermite(A, 3)
    for _ in range(30):
        v = tuple(rng.randint(-8, 8) for _ in range(3))
        c = canonical_rep(v, H, pivots)
        # difference lies in the row lattice
        diff = tuple(a - b for a, b in zip(v, c))
        assert solve_combination(A, diff) is not None
        # same class -> same representative
        shift = [rng.randint(-3, 3) for _ in range(2)]
        w = tuple(
            x + sum(s * row[j] for s, row in zip(shift, A))
            for j, x in enumerate(v)
        )
        assert canonical_rep(w, H, pivots) == c


# systems are lists of (coeffs, const) meaning coeffs . z + const >= 0


def brute_box_points(rows, nvars, box=12):
    out = []
    for z in itertools.product(range(-box, box + 1), repeat=nvars):
        if all(sum(a * x for a, x in zip(r, z)) + c >= 0 for r, c in rows):
            out.append(z)
    return sorted(out)


def test_integer_points_matches_brute_force():
    local = random.Random(12)  # 4 to 6 systems of each size 0..4
    for _ in range(25):
        nvars = local.randint(0, 4)
        rows = []
        # ensure boundedness with a box |z_i| <= 6, then add random cuts
        for i in range(nvars):
            e = tuple(1 if j == i else 0 for j in range(nvars))
            rows.append((e, local.randint(0, 6)))
            rows.append((tuple(-x for x in e), local.randint(0, 6)))
        for _ in range(local.randint(0, 3)):
            rows.append(
                (tuple(local.randint(-2, 2) for _ in range(nvars)), local.randint(-3, 3))
            )
        expected = brute_box_points(rows, nvars, box=6)
        assert sorted(integer_points(rows, nvars)) == expected


def test_integer_points_unbounded():
    with pytest.raises(ValueError):
        integer_points([((1,), 0)], 1)
    # 0 <= z_0 <= 2 but z_1 >= 0 only: raised at the second level
    with pytest.raises(ValueError):
        integer_points([((1, 0), 0), ((-1, 0), 2), ((0, 1), 0)], 2)


def test_rational_point_and_feasibility():
    for _ in range(30):
        nvars = rng.randint(1, 3)
        center = [Fraction(rng.randint(-4, 4)) for _ in range(nvars)]
        rows = []
        for _ in range(rng.randint(1, 5)):
            a = tuple(rng.randint(-3, 3) for _ in range(nvars))
            # choose the constant so that `center` satisfies the row
            val = sum(ai * ci for ai, ci in zip(a, center))
            rows.append((a, int(-val) + rng.randint(0, 4)))
        p = rational_point(rows, nvars)
        assert p is not None
        for a, c in rows:
            assert sum(ai * pi for ai, pi in zip(a, p)) + c >= 0


def fraction_descent(rows, nvars):
    """rational_point's midpoint descent in Fraction arithmetic throughout:
    the reference for its integer bookkeeping."""
    systems = [None] * (nvars + 1)
    systems[nvars] = sorted({_normalize_row(a, c) for a, c in rows})
    for v in range(nvars - 1, 0, -1):
        systems[v] = fm_eliminate(systems[v + 1], v)
    last = systems[1] if nvars else systems[0]
    if any(not any(a) and c < 0 for a, c in last):
        return None
    point = []
    for v in range(nvars):
        lo, hi = None, None
        for a, c in systems[v + 1]:
            s = Fraction(c) + sum(Fraction(a[i]) * point[i] for i in range(v))
            if a[v] > 0 and (lo is None or -s / a[v] > lo):
                lo = -s / a[v]
            elif a[v] < 0 and (hi is None or s / -a[v] < hi):
                hi = s / -a[v]
        if lo is not None and hi is not None:
            if lo > hi:
                return None
            point.append((lo + hi) / 2)
        elif lo is not None or hi is not None:
            point.append(max(lo, Fraction(0)) if hi is None else min(hi, Fraction(0)))
        else:
            point.append(Fraction(0))
    return tuple(point)


def test_rational_point_matches_fraction_descent():
    local = random.Random(7)
    for _ in range(400):
        nvars = local.randint(0, 4)
        rows = [
            (tuple(local.randint(-4, 4) for _ in range(nvars)), local.randint(-6, 6))
            for _ in range(local.randint(0, 8))
        ]
        p = rational_point(rows, nvars)
        assert p == fraction_descent(rows, nvars)
        assert p is None or all(type(x) is Fraction for x in p)


def test_rational_point_infeasible():
    rows = [((1,), 0), ((-1,), -1)]  # z >= 0 and z <= -1
    assert rational_point(rows, 1) is None


def test_rational_point_without_variables():
    assert rational_point([((), 0), ((), 3)], 0) == ()
    assert rational_point([], 0) == ()
    assert rational_point([((), 2), ((), -1)], 0) is None


def test_rank_rational_against_sympy():
    for _ in range(40):
        r = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = random_matrix(r, n)
        if rng.random() < 0.3 and r >= 2:
            # plant a dependent row
            A[-1] = tuple(2 * x - y for x, y in zip(A[0], A[min(1, r - 1)]))
        assert rank_rational(A) == sympy.Matrix(A).rank()


def test_rank_mod_p_small_entries_match_rational():
    # entries in [-3,3] and size <= 4 keep every minor below 32003,
    # so reduction mod 32003 cannot drop the rank
    for _ in range(60):
        r = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_matrix(r, n, -3, 3)
        assert rank_mod_p(A, 32003) == rank_rational(A)


def test_rank_mod_p_can_differ_from_rational():
    assert rank_rational([(2,)]) == 1
    assert rank_mod_p([(2,)], 2) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 32003])
def test_rank_mod_p_against_sympy(p):
    """Forward elimination against sympy's GF(p) rank, on small-entry
    matrices and on matrices whose last row is the first plus p times a
    random row: dependent mod p, and over Q most often not."""
    field = sympy.GF(p)
    drops = 0
    for _ in range(60):
        r = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = random_matrix(r, n, -4, 4)
        if r >= 2 and rng.random() < 0.5:
            A[-1] = tuple(x + p * rng.randint(-2, 2) for x in A[0])
        want = DomainMatrix.from_list(A, sympy.ZZ).convert_to(field).rank()
        assert rank_mod_p(A, p) == want, (p, A)
        drops += want < rank_rational(A)
    assert drops >= 5


def test_rank_gf2_matches_rank_mod_2():
    """The bitset rank (bit j of a row is column j) against rank_mod_p over
    GF(2) on 0/1 matrices, wide, tall and with repeated rows."""
    for _ in range(200):
        r = rng.randint(0, 9)
        n = rng.randint(1, 9)
        A = random_matrix(r, n, 0, 1)
        if r >= 3 and rng.random() < 0.3:
            A[-1] = tuple(x ^ y for x, y in zip(A[0], A[1]))
        rows = [sum(x << j for j, x in enumerate(row)) for row in A]
        assert rank_gf2(rows) == rank_mod_p(A, 2), A
    assert rank_gf2([]) == rank_gf2([0, 0]) == 0
    assert rank_gf2([0b11, 0b101, 0b110]) == 2


def sparse(A):
    """The rows of A as dicts {column: nonzero entry}, as rank_exact takes them."""
    return [{j: x for j, x in enumerate(row) if x} for row in A]


@pytest.mark.parametrize("p", [0, 2, 3, 5, 32003])
def test_rank_exact_against_sympy(p):
    """rank_exact over Q (p = 0) and GF(p) against sympy, on entries in
    [-3, 3], where many pivots are not +-1, and on matrices whose last row
    depends on the others: over Q a combination of two rows, mod p the
    first row plus p times a random row."""
    field = sympy.GF(p) if p else sympy.QQ
    for _ in range(80):
        r = rng.randint(1, 7)
        n = rng.randint(1, 7)
        A = random_matrix(r, n, -3, 3)
        if r >= 2 and rng.random() < 0.4:
            if p:
                A[-1] = tuple(x + p * rng.randint(-2, 2) for x in A[0])
            else:
                A[-1] = tuple(2 * x - 3 * y for x, y in zip(A[0], A[1]))
        want = DomainMatrix.from_list(A, sympy.ZZ).convert_to(field).rank()
        assert rank_exact(sparse(A), p) == want, (p, A)


def test_rank_exact_without_unit_pivots():
    """No entry is +-1, so over Q every step takes the scaled branch,
    x * r - r[c] * pivot row; mod p the entries are reduced first."""
    A = [(2, 4, 6), (4, 2, 0), (6, 6, 6)]  # det 0, rank 2; every entry even
    assert rank_exact(sparse(A)) == 2
    assert rank_exact(sparse(A), 2) == 0
    assert rank_exact(sparse(A), 3) == 1
    assert rank_exact(sparse(A), 5) == 2
    assert rank_exact([{0: 5}, {1: 10, 2: -15}], 5) == 0


def test_rank_exact_empty_and_zero_rows():
    for p in (0, 2, 3, 32003):
        assert rank_exact([], p) == 0
        assert rank_exact([{}, {}], p) == 0
        assert rank_exact([{}, {3: 1}, {}, {3: -2}], p) == 1


def test_rank_exact_mod_p_at_most_rational():
    """A nonzero minor mod p is a nonzero integer minor, so no GF(p) rank
    exceeds the Q rank; on matrices with entries up to 6 some are lower."""
    drops = 0
    for _ in range(200):
        A = random_matrix(rng.randint(1, 6), rng.randint(1, 6))
        over_q = rank_exact(sparse(A))
        for p in (2, 3, 5):
            over_p = rank_exact(sparse(A), p)
            assert over_p <= over_q, (p, A)
            drops += over_p < over_q
    assert drops >= 10
