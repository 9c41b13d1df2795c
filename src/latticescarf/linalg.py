"""Exact integer linear algebra used throughout the package.

Everything works on plain Python ints (arbitrary precision) or Fractions;
no floating point anywhere.  Matrices are sequences of row tuples.

The pieces:

* row-style Hermite normal form with transform: kernels, integer linear
  solves, coset reduction and the coset coordinates of a lattice (its
  torsion digits are Hermite coordinates too),
* a size-reduced basis of a lattice, longest row first, the basis that
  fiber queries descend over: the fiber does not depend on the basis,
  and the shortest row at the last level yields more members per call,
* Fourier-Motzkin elimination over the integers/rationals: integer
  points for single-degree fiber queries (fibers.enumerate_fiber), each
  carried down the descent with the values of the input rows, which for
  a fiber are its members; and a rational point of the one system that
  decides pointedness and gives the positive functional (lattice_core);
  degree scans run none.  Both descents take each variable's exact
  rational bounds from one routine, _bounds, except the integer
  descent's last variable, whose bounds the carried values give,
* ranks for homology: over GF(2) by XOR elimination of int bitset rows,
  and over Q or GF(p) by one sparse elimination of dict rows that pivots
  on entries of least absolute value (over Q on +-1 wherever it can,
  which keeps every entry an integer with no scaling); with the
  primality check that guards GF(p).
"""

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from operator import add, floordiv, mul


def row_hermite(rows, ncols):
    """Row Hermite normal form.

    Returns (H, U, pivots) with U unimodular, H = U * rows, the nonzero
    rows of H in echelon position with positive pivots, entries above each
    pivot reduced into [0, pivot), and pivots[k] = pivot column of row k.
    Zero rows of H (dependent input rows) sink to the bottom.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    k = 0
    pivots = []
    for col in range(ncols):
        while True:
            nz = [i for i in range(k, nr) if m[i][col]]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda i: abs(m[i][col]))
            for i in nz:
                if i == piv:
                    continue
                q = m[i][col] // m[piv][col]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[piv])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[piv])]
        nz = [i for i in range(k, nr) if m[i][col]]
        if not nz:
            continue
        i = nz[0]
        if i != k:
            m[i], m[k] = m[k], m[i]
            u[i], u[k] = u[k], u[i]
        if m[k][col] < 0:
            m[k] = [-a for a in m[k]]
            u[k] = [-a for a in u[k]]
        p = m[k][col]
        for a in range(k):
            q = m[a][col] // p
            if q:
                m[a] = [x - q * y for x, y in zip(m[a], m[k])]
                u[a] = [x - q * y for x, y in zip(u[a], u[k])]
        pivots.append(col)
        k += 1
    H = tuple(tuple(r) for r in m)
    U = tuple(tuple(r) for r in u)
    return H, U, tuple(pivots)


def size_reduce(rows):
    """A basis of the lattice the independent rows span, size-reduced and
    longest row first.  Row b_i takes off q = round(<b_i,b_k>/<b_k,b_k>)
    times another row b_k whenever that lowers |b_i|^2, until no such step
    is left; each step is unimodular and lowers a norm, so this ends.  The
    rows are then ordered by norm, longest first, ties in row order."""
    b = [list(r) for r in rows]
    norms = [sum(map(mul, r, r)) for r in b]
    changed = True
    while changed:
        changed = False
        for i, k in permutations(range(len(b)), 2):
            p, nk = sum(map(mul, b[i], b[k])), norms[k]
            q = (2 * p + nk) // (2 * nk)
            d = q * (q * nk - 2 * p)  # |b_i - q b_k|^2 - |b_i|^2
            if d < 0:
                b[i] = [x - q * y for x, y in zip(b[i], b[k])]
                norms[i] += d
                changed = True
    order = sorted(range(len(b)), key=norms.__getitem__, reverse=True)
    return tuple(tuple(b[i]) for i in order)


def integer_kernel(rows, ncols):
    """Basis of {u in Z^ncols : M u = 0} for the matrix with the given rows.

    The returned rows span the *saturated* kernel lattice (every integer
    solution is an integer combination of them).
    """
    at = [tuple(r[j] for r in rows) for j in range(ncols)]  # transpose
    _H, U, pivots = row_hermite(at, len(rows))
    return U[len(pivots) :]


def solve_combination(rows, target):
    """Integer coefficients u with sum(u_i * rows_i) = target, or None."""
    H, U, pivots = row_hermite(rows, len(target))
    t = list(target)
    y = [0] * len(rows)
    for k, col in enumerate(pivots):
        p = H[k][col]
        if t[col] % p:
            return None
        q = t[col] // p
        y[k] = q
        if q:
            t = [a - q * b for a, b in zip(t, H[k])]
    if any(t):
        return None
    out = [0] * len(rows)
    for k in range(len(pivots)):
        if y[k]:
            out = [a + y[k] * b for a, b in zip(out, U[k])]
    return tuple(out)


def canonical_rep(v, H, pivots):
    """Reduce v modulo the row span of the Hermite form H.

    Subtracts integer multiples of the pivot rows so that the pivot
    coordinates land in [0, pivot).  Two vectors get the same output iff
    they differ by an integer combination of the rows.
    """
    w = list(v)
    for k, col in enumerate(pivots):
        q = w[col] // H[k][col]
        if q:
            w = [a - q * b for a, b in zip(w, H[k])]
    return tuple(w)


# ---------------------------------------------------------------------------
# Fourier-Motzkin.  A system is a collection of rows (a, c) meaning
# a . z + c >= 0, with a a coefficient tuple over variables z_0..z_{k-1}.
# Eliminating the last variable gives an equivalent system over a prefix;
# projections are exact over the rationals.


def _normalize_row(a, c):
    g = gcd(*a, c)
    if g > 1:
        a = tuple(x // g for x in a)
        c = c // g
    return a, c


def fm_eliminate(rows, v):
    """Project the system onto the variables other than z_v.

    Returns rows whose v-coefficient is zero.  Raises nothing: an
    unbounded system surfaces later, as the ValueError of
    integer_solutions when a variable has no bound on one side.
    """
    pos, neg, rest = [], [], []
    for a, c in rows:
        if a[v] > 0:
            pos.append((a, c))
        elif a[v] < 0:
            neg.append((a, c))
        else:
            rest.append((a, c))
    out = set()
    for a, c in rest:
        a, c = _normalize_row(a, c)
        if any(a) or c < 0:
            out.add((a, c))
    for ap, cp in pos:
        for an, cn in neg:
            mp = -an[v]
            mn = ap[v]
            a = tuple(mp * x + mn * y for x, y in zip(ap, an))
            c = mp * cp + mn * cn
            a, c = _normalize_row(a, c)
            if any(a) or c < 0:
                out.add((a, c))
    return sorted(out)


def _bounds(rows, v, nums, den):
    """Exact bounds on z_v given the prefix z_i = nums[i] / den, i < v.

    rows must involve no variable beyond z_v, len(nums) == v and den > 0.
    Returns (lo, hi), each a (numerator, denominator > 0) pair or None
    where z_v is unbounded on that side; or None when a row without z_v
    fails.  Each row is evaluated and each bound compared in integers.
    """
    lo, hi = None, None
    for a, c in rows:
        s = c * den + sum(map(mul, a, nums))  # den times the row's prefix value
        av = a[v]
        if av == 0:
            if s < 0:
                return None
        elif av > 0:
            if lo is None or -s * lo[1] > lo[0] * av * den:
                lo = (-s, av * den)
        elif hi is None or s * hi[1] < hi[0] * -av * den:
            hi = (s, -av * den)
    return lo, hi


def _projections(rows, nvars):
    """systems[v + 1] is the system a . z + c >= 0 projected onto
    z_0..z_v by Fourier-Motzkin elimination, for v = 0..nvars-1;
    systems[nvars] is the normalized input (also systems[0] if nvars = 0)."""
    systems = [None] * (nvars + 1)
    systems[nvars] = sorted({_normalize_row(a, c) for a, c in rows})
    for v in range(nvars - 1, 0, -1):
        systems[v] = fm_eliminate(systems[v + 1], v)
    return systems


def integer_solutions(rows, nvars):
    """All integer solutions z of a . z + c >= 0, each with the values of
    the input rows at it: pairs (z, s), s[j] = a_j . z + c_j for the rows
    in input order, in increasing lexicographic order of z.

    A descent over z_0, z_1, ...  that carries s along with z: entering
    level v at its lowest value adds that value times the column of z_v's
    coefficients, and each later value adds the column once.  An inner
    level takes the integers between _bounds' exact ends on its
    projection, with the prefix over denominator 1.  The last level reads
    its ends from s and the rows' last coefficients, with no _bounds and
    no inner products; this is exact because the normalized input has the
    same integer points as the input.  Raises ValueError if the solution
    set is unbounded in some direction (callers use this only for systems
    known to be bounded -- fibers of a pointed lattice).
    """
    rows = list(rows)
    start = tuple(c for a, c in rows)
    if nvars == 0:
        return [((), start)] if all(c >= 0 for c in start) else []
    systems = _projections(rows, nvars)  # read by the inner levels only
    cols = [tuple(a[v] for a, c in rows) for v in range(nvars)]
    # the last level's rows by the sign of their z coefficient
    last = cols[-1]
    zero = [j for j, b in enumerate(last) if b == 0]
    pos = [j for j, b in enumerate(last) if b > 0]
    neg = [j for j, b in enumerate(last) if b < 0]
    pos_b = [last[j] for j in pos]
    neg_b = [-last[j] for j in neg]
    out = []
    prefix = []

    def descend(v, s):
        if v == nvars - 1:
            # s_j + z b_j >= 0: z >= ceil(-s_j / b_j) where b_j > 0,
            # z <= floor(s_j / -b_j) where b_j < 0, and s_j >= 0 where b_j = 0
            if min(map(s.__getitem__, zero), default=0) < 0:
                return
            if not pos or not neg:
                raise ValueError("unbounded solution set")
            lo = -min(map(floordiv, map(s.__getitem__, pos), pos_b))
            hi = min(map(floordiv, map(s.__getitem__, neg), neg_b))
        else:
            bounds = _bounds(systems[v + 1], v, prefix, 1)
            if bounds is None:
                return
            lo, hi = bounds
            if lo is None or hi is None:
                raise ValueError("unbounded solution set")
            lo, hi = -(-lo[0] // lo[1]), hi[0] // hi[1]
        if lo > hi:
            return
        col = cols[v]
        s = tuple(map(add, s, map(lo.__mul__, col)))
        if v == nvars - 1:
            head = tuple(prefix)
            for z in range(lo, hi + 1):
                out.append((head + (z,), s))
                s = tuple(map(add, s, col))
            return
        for z in range(lo, hi + 1):
            prefix.append(z)
            descend(v + 1, s)
            prefix.pop()
            s = tuple(map(add, s, col))

    descend(0, start)
    return out


def rational_point(rows, nvars):
    """Some exact rational solution of a . z + c >= 0, or None.

    Chooses the midpoint of _bounds' interval on the way down (on a
    half-line its point nearest 0, on the whole line 0); Fourier-Motzkin
    projections being exact over Q, every prefix admissible at level v
    extends.  The prefix is held as integer numerators over one common
    denominator.
    """
    systems = _projections(rows, nvars)
    if nvars == 0:
        return () if all(c >= 0 for a, c in systems[0]) else None
    point = []
    nums, den = [], 1  # point[i] == nums[i] / den
    for v in range(nvars):
        bounds = _bounds(systems[v + 1], v, nums, den)
        if bounds is None:
            return None
        lo, hi = (None if b is None else Fraction(*b) for b in bounds)
        if lo is None and hi is None:
            z = Fraction(0)
        elif lo is None:
            z = min(hi, Fraction(0))
        elif hi is None:
            z = max(lo, Fraction(0))
        else:
            if lo > hi:
                return None
            z = (lo + hi) / 2
        point.append(z)
        m = lcm(den, z.denominator)
        nums = [x * (m // den) for x in nums] + [z.numerator * (m // z.denominator)]
        den = m
    return tuple(point)


# ---------------------------------------------------------------------------
# Rank computations for homology.


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin with the first 13 prime bases, exact for
    n below 3.3e24 (the least strong pseudoprime to all of them).  Larger
    n are reported not prime, so they are never taken for a field."""
    if n < 2 or n >= 3317044064679887385961981:
        return False
    if n in _MR_BASES:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def rank_exact(rows, p=0):
    """Rank over Q (p = 0) or over GF(p), p prime, of the integer matrix
    whose rows are dicts {column: nonzero int}; the rows are consumed.

    Each step takes a shortest row as the pivot row, and in it an entry x
    of least absolute value, in column c; it clears c from every other
    row r and drops the pivot row, which adds 1 to the rank.  Mod p every
    nonzero entry is a unit, so r[c] / x times the pivot row comes off r.
    Over Q a pivot x = +-1 takes r[c] * x times the pivot row off r,
    which keeps every entry an integer with no scaling; any other x
    replaces r by x * r - r[c] * pivot row, which keeps the rank, as
    x != 0."""
    if p:
        rows = [{c: x % p for c, x in r.items() if x % p} for r in rows]
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot = min(rows, key=len)
        c, x = min(pivot.items(), key=lambda e: abs(e[1]))
        # 1 / x where it is in the ring, else 0
        unit = pow(x, -1, p) if p else x if x in (1, -1) else 0
        rank += 1
        left = []
        for r in rows:
            y = r.get(c)
            if y is None:
                left.append(r)
                continue
            if r is pivot:
                continue
            if unit:
                f = y * unit % p if p else y * unit
            else:
                for col in r:
                    r[col] *= x
                f = y
            for col, v in pivot.items():
                z = r.get(col, 0) - f * v
                if p:
                    z %= p
                if z:
                    r[col] = z
                else:
                    del r[col]
            if r:
                left.append(r)
        rows = left
    return rank


def rank_gf2(rows):
    """Rank over GF(2) of the matrix whose rows are int bitsets (bit j is
    column j).  Each row is XOR-reduced against the rows kept so far, one
    per leading bit, until it is 0 or has a new leading bit."""
    basis = {}
    for r in rows:
        while r:
            top = r.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = r
                break
            r ^= b
    return len(basis)
