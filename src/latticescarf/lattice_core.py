"""Pointed integer lattices, degree classes, and the divisibility order.

A lattice here is a subgroup L of Z^n given by a basis of independent
integer rows.  Pointed means L meets the nonnegative orthant only in 0;
exactly then every congruence class b in Z^n/L contains finitely many
nonnegative vectors (the fiber of b), and everything downstream -- Betti
scans, Scarf posets -- makes sense.  By Stiemke's lemma L is pointed iff
some strictly positive functional vanishes on L, so one linear system,
solved once when a LatticeBasis is built, both decides pointedness (a
non-pointed basis raises NotPointedError) and yields the grading
functional (positive_functional).
The same transform gives coordinates phi on Z^n/L: free ones from a
kernel basis and, when Z^n/L has torsion, digits t_k in [0, H[k][k])
from the Hermite form H of its torsion block, keyed by canonical_rep
like the classes.  A degree scan packs them into ints (CosetPacking,
ScannedClasses); classes keep their Hermite keys.
"""

from math import gcd, lcm
from operator import mul

from .linalg import (
    canonical_rep,
    integer_kernel,
    rational_point,
    row_hermite,
)


class NotPointedError(ValueError):
    """The lattice contains a nonzero nonnegative vector."""


def _check_rows(rows, n, what):
    """Raise ValueError, naming the matrix what, unless each of rows has
    length n and every entry is an int (not a bool)."""
    if any(len(r) != n for r in rows):
        raise ValueError("%s rows have unequal lengths" % what)
    if not all(isinstance(x, int) and not isinstance(x, bool) for r in rows for x in r):
        raise ValueError("%s entries must be integers" % what)


class SemigroupMatrix:
    """Integer matrix whose columns generate the grading semigroup.

    Rows are degree coordinates, columns correspond to variables.  Columns
    must be nonzero (a zero column would make the induced lattice contain a
    unit vector, hence not pointed).
    """

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        if not rows or not rows[0]:
            raise ValueError("semigroup matrix must be nonempty")
        n = len(rows[0])
        _check_rows(rows, n, "semigroup matrix")
        for j in range(n):
            if not any(r[j] for r in rows):
                raise ValueError("zero generator: semigroup column %d is zero" % j)
        self.rows = rows
        self.d = len(rows)
        self.n = n

    def degree_of(self, u):
        """Image A*u of an exponent vector."""
        return tuple(sum(r[j] * u[j] for j in range(self.n)) for r in self.rows)

    def column_sums(self):
        return tuple(sum(r[j] for r in self.rows) for j in range(self.n))

    def __repr__(self):
        return "SemigroupMatrix(%r)" % (self.rows,)


class LatticeBasis:
    """A pointed lattice L in Z^n, stored as an independent row basis.

    Construction verifies independence over Q and pointedness; a Hermite
    form of the basis is kept for coset reduction, and coset coordinates
    for packing classes in a scan (CosetPacking): the kernel basis, and
    with torsion the Hermite form that keys the torsion digits.

    functional is the primitive, strictly positive integer w orthogonal to
    L, found at construction; it exists exactly because L is pointed.
    """

    def __init__(self, rows, n=None):
        rows = tuple(map(tuple, rows))
        if n is None:
            if not rows:
                raise ValueError("ambient dimension required for the zero lattice")
            n = len(rows[0])
        _check_rows(rows, n, "lattice")
        H, _, pivots = row_hermite(rows, n)
        if len(pivots) != len(rows):
            raise ValueError("lattice rows are linearly dependent")
        self.rows = rows
        self.n = n
        self.r = len(rows)
        self._hnf = H
        self._pivots = pivots
        # U B^T = T, so B V = T^T = [M | 0] for the unimodular V = U^T: the
        # coordinates phi(u) = u V = U u send L onto the row span of M in
        # the first r coordinates.  The last n - r rows of U are a kernel
        # basis K, the free coordinates.  u is then 0 mod L iff K u = 0
        # and y = U[:r] u lies in the row span of M^T; when some pivot of
        # T is above 1, the Hermite form H of M^T keys y (canonical_rep),
        # and its coordinates k with H[k][k] > 1 are the torsion digits.
        T, U, _ = row_hermite([tuple(row[j] for row in rows) for j in range(n)], self.r)
        self._free = U[self.r :]
        self._torsion = ((), (), ())  # (U[:r], H, pivots); empty when saturated
        if any(T[k][k] > 1 for k in range(self.r)):
            Mt = [tuple(T[k][i] for k in range(self.r)) for i in range(self.r)]
            Ht, _, tpivots = row_hermite(Mt, self.r)
            self._torsion = (U[: self.r], Ht, tpivots)
        self.functional = _positive_functional(self._free, n)

    def canonical_key(self, v):
        """Canonical coset representative of v; equal iff congruent mod L."""
        if len(v) != self.n:
            raise ValueError("vector has wrong dimension")
        return canonical_rep(v, self._hnf, self._pivots)

    def __repr__(self):
        return "LatticeBasis(%r, n=%d)" % (self.rows, self.n)


def _guard(row):
    """G_k = max_j |K[k][j]|, the most a unit step moves K[k] . u."""
    return max(map(abs, row))


class CosetPacking:
    """The classes of Z^n/L with a nonnegative member of value w . u <=
    bound, packed into ints for one scan.

    u is keyed by phi(u) = (K u, t), t = canonical_rep(U[:r] u, H, pivots)
    with the torsion Hermite form of LatticeBasis: a bijection from Z^n/L
    onto Z^(n-r) times the t with each t_k in [0, H[k][k]).  The lowest
    bits hold these torsion digits, t_k in the bits of [0, H[k][k]) (none
    where H[k][k] = 1, as t_k is 0 there), and low masks them (0 on a
    saturated lattice).  A monomial u of value <= bound has |K[k] . u| <=
    R_k = max_j |K[k][j]| * bound // w_j; above the digits, free
    coordinate k is stored as K[k] . u + R_k + G_k in a field that holds
    [0, 2 R_k + 2 G_k].  A unit step moves it by at most the guard G_k,
    so from an in-range key it neither borrows nor carries: it gives the
    key of the stepped class when that is in range and a key of no class
    otherwise.  moves(key & low, sign) gives what the steps sign * e_j
    add to a key; without torsion they are fixed, and a step is one
    integer addition.
    """

    __slots__ = ("low", "_cols", "_zero", "_fields", "_torsion", "_digits")

    def __init__(self, L, bound, w):
        self._torsion = L._torsion
        shift, digits = 0, []
        for k, row in enumerate(L._torsion[1]):
            width = (row[k] - 1).bit_length()
            digits.append((shift, (1 << width) - 1))
            shift += width
        self.low = (1 << shift) - 1
        fields, zero = [], 0
        for row in L._free:
            R = max(abs(x) * bound // wj for x, wj in zip(row, w))
            offset = R + _guard(row)
            fields.append((row, R, shift))
            zero += offset << shift
            shift += (2 * offset).bit_length()
        self._cols = [sum(row[j] << s for row, _R, s in fields) for j in range(L.n)]
        self._zero, self._fields, self._digits = zero, tuple(fields), tuple(digits)

    def moves(self, digits, sign):
        """What the steps sign * e_j, j = 0 ... n - 1, add to a key whose
        torsion digits read digits (key & low): the free fields move by
        sign * K e_j, and t by canonical_rep(t + sign * U[:r] e_j) - t."""
        out = [sign * col for col in self._cols]
        Y, H, pivots = self._torsion
        if Y:
            t = [digits >> s & mask for s, mask in self._digits]
            for j, c in enumerate(zip(*Y)):
                rep = canonical_rep([a + sign * b for a, b in zip(t, c)], H, pivots)
                out[j] += sum(a - b << s for a, b, (s, _mask) in zip(rep, t, self._digits))
        return tuple(out)

    def pack(self, v):
        """The key of the class of the integer vector v, or None when a
        free coordinate lies outside [-R_k, R_k]: then the class has no
        monomial of value <= bound, and no key stands for two classes."""
        if len(v) != len(self._cols):
            raise ValueError("vector has wrong dimension")
        key = self._zero
        for row, R, shift in self._fields:
            y = sum(map(mul, row, v))
            if not -R <= y <= R:
                return None
            key += y << shift
        Y, H, pivots = self._torsion
        if Y:
            t = canonical_rep([sum(map(mul, row, v)) for row in Y], H, pivots)
            key += sum(x << s for x, (s, _mask) in zip(t, self._digits))
        return key


class ScannedClasses:
    """The classes a degree scan reached, held as packed keys (see
    CosetPacking).  len() counts them; v in it asks whether the class of
    the integer vector v was reached."""

    __slots__ = ("_packing", "_keys")

    def __init__(self, packing, keys):
        self._packing = packing
        self._keys = keys

    def __contains__(self, v):
        key = self._packing.pack(v)
        return key is not None and key in self._keys

    def __len__(self):
        return len(self._keys)


def _positive_functional(K, n):
    """The primitive strictly positive integer w orthogonal to L, or
    NotPointedError when there is none.  Its candidates are w = c K over
    the kernel basis K of L (the rows orthogonal to L), subject to
    sum_i c_i K[i][j] >= 1 for every variable j; a rational point c of
    that system, scaled to integers, gives w."""
    k = len(K)
    pt = rational_point([(tuple(row[j] for row in K), -1) for j in range(n)], k)
    if pt is None:
        raise NotPointedError("lattice contains a nonzero nonnegative vector")
    denom = lcm(*(f.denominator for f in pt))
    c = [int(f * denom) for f in pt]
    w = tuple(sum(c[i] * K[i][j] for i in range(k)) for j in range(n))
    g = gcd(*w)
    w = tuple(x // g for x in w)
    if any(x < 1 for x in w):
        raise RuntimeError("functional %r is not strictly positive" % (w,))
    return w


def lattice_from_semigroup(A):
    """Saturated lattice of integer relations among the columns of A.

    Raises NotPointedError when the relation lattice is not pointed (e.g.
    when some column is zero or the semigroup has units).
    """
    K = integer_kernel(A.rows, A.n)
    return LatticeBasis(K, n=A.n)


def contains(L, v):
    """Is v an element of the lattice?"""
    return not any(L.canonical_key(v))


def _same_lattice(L1, L2):
    """Do L1 and L2 have the same basis?  Classes compare only then."""
    return L1 is L2 or (L1.rows == L2.rows and L1.n == L2.n)


class DegreeClass:
    """A congruence class of Z^n modulo L, held as some representative.

    Equality and hashing go through the canonical coset representative, so
    two classes compare equal iff their representatives are congruent.
    """

    __slots__ = ("lattice", "representative", "key")

    def __init__(self, lattice, representative):
        self.lattice = lattice
        self.representative = tuple(representative)
        self.key = lattice.canonical_key(self.representative)

    def __eq__(self, other):
        if not isinstance(other, DegreeClass):
            return NotImplemented
        return _same_lattice(self.lattice, other.lattice) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "DegreeClass(%r)" % (self.representative,)


def class_of(L, u):
    return DegreeClass(L, u)


def positive_functional(L):
    """A strictly positive integer w with w orthogonal to L.

    Exists precisely because L is pointed; w induces the grading functional
    sigma(u) = w . u, constant on fibers and >= 1 on every unit vector, so
    degree scans bounded by sigma terminate.
    """
    return L.functional
