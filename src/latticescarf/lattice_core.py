"""Pointed integer lattices, degree classes, and the divisibility order.

A lattice here is a subgroup L of Z^n given by a basis of independent
integer rows.  Pointed means L meets the nonnegative orthant only in 0;
exactly then every congruence class b in Z^n/L contains finitely many
nonnegative vectors (the fiber of b), and everything downstream -- Betti
scans, Scarf posets -- makes sense.  By Stiemke's lemma L is pointed iff
some strictly positive functional vanishes on L, so one linear system,
solved once when a LatticeBasis is built, both decides pointedness
(is_pointed) and yields the grading functional (positive_functional).
"""

from math import gcd, lcm

from .linalg import canonical_rep, integer_kernel, rational_point, row_hermite


class NotPointedError(ValueError):
    """The lattice contains a nonzero nonnegative vector."""


class SemigroupMatrix:
    """Integer matrix whose columns generate the grading semigroup.

    Rows are degree coordinates, columns correspond to variables.  Columns
    must be nonzero (a zero column would make the induced lattice contain a
    unit vector, hence not pointed).
    """

    def __init__(self, rows):
        rows = tuple(tuple(x for x in r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("semigroup matrix must be nonempty")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("semigroup matrix rows have unequal lengths")
        for r in rows:
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError("semigroup matrix entries must be integers")
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

    Construction verifies independence over Q and (unless check=False)
    pointedness; a Hermite form of the basis is kept for coset reduction.

    functional is the primitive, strictly positive integer w orthogonal to
    L, found at construction; it exists exactly when L is pointed, and is
    None otherwise (possible only with check=False).
    """

    def __init__(self, rows, n=None, check=True):
        rows = tuple(tuple(x for x in r) for r in rows)
        if rows:
            if n is None:
                n = len(rows[0])
            if any(len(r) != n for r in rows):
                raise ValueError("lattice rows have unequal lengths")
        elif n is None:
            raise ValueError("ambient dimension required for the zero lattice")
        for r in rows:
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError("lattice entries must be integers")
        H, U, pivots = row_hermite(rows, n)
        if len(pivots) != len(rows):
            raise ValueError("lattice rows are linearly dependent")
        self.rows = rows
        self.n = n
        self.r = len(rows)
        self._hnf = H
        self._pivots = pivots
        # per column: None off the pivots; for the pivot column of row k,
        # (the pivot, the rows from k on, their pivot columns)
        self._steps = [None] * n
        for k, col in enumerate(pivots):
            self._steps[col] = (H[k][col], H[k:], pivots[k:])
        self.functional = _positive_functional(rows, n)
        if check and self.functional is None:
            raise NotPointedError("lattice contains a nonzero nonnegative vector")

    def canonical_key(self, v):
        """Canonical coset representative of v; equal iff congruent mod L."""
        if len(v) != self.n:
            raise ValueError("vector has wrong dimension")
        return canonical_rep(v, self._hnf, self._pivots)

    def step_key(self, key, j):
        """canonical_key(key + e_j) for a canonical key, whose pivot
        coordinates all lie in [0, pivot).  Only coordinate j moves: off
        the pivot columns, or short of its pivot, the key stays canonical;
        when it reaches its pivot the reduction starts at its pivot row,
        since the rows above it reduce by 0."""
        key = list(key)
        key[j] += 1
        step = self._steps[j]
        if step is not None and key[j] == step[0]:
            return canonical_rep(key, step[1], step[2])
        return tuple(key)

    def __repr__(self):
        return "LatticeBasis(%r, n=%d)" % (self.rows, self.n)


def _positive_functional(rows, n):
    """The primitive strictly positive integer w orthogonal to the rows, or
    None.  Its candidates are w = c K over a basis K of the orthogonal
    complement, subject to sum_i c_i K[i][j] >= 1 for every variable j; a
    rational point c of that system, scaled to integers, gives w."""
    K = integer_kernel(rows, n)
    k = len(K)
    pt = rational_point([(tuple(row[j] for row in K), -1) for j in range(n)], k)
    if pt is None:
        return None
    denom = lcm(*(f.denominator for f in pt))
    c = [int(f * denom) for f in pt]
    w = tuple(sum(c[i] * K[i][j] for i in range(k)) for j in range(n))
    g = gcd(*w)
    w = tuple(x // g for x in w)
    if any(x < 1 for x in w):
        raise RuntimeError("functional %r is not strictly positive" % (w,))
    return w


def is_pointed(L):
    """Does L meet the nonnegative orthant only in the origin?  Exactly
    when it has a strictly positive functional (Stiemke's lemma)."""
    return L.functional is not None


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

    @classmethod
    def _with_key(cls, lattice, representative, key):
        """The class of representative, whose canonical key is known."""
        b = cls.__new__(cls)
        b.lattice, b.representative, b.key = lattice, representative, key
        return b

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


def class_leq(d, b):
    """The divisibility (semigroup) order: d <= b iff b - d has a
    nonnegative representative, i.e. the fiber of b - d is nonempty."""
    from .fibers import enumerate_fiber

    if not _same_lattice(d.lattice, b.lattice):
        raise ValueError("classes live over different lattices")
    diff = tuple(x - y for x, y in zip(b.representative, d.representative))
    return len(enumerate_fiber(b.lattice, diff)) > 0


def positive_functional(L):
    """A strictly positive integer w with w orthogonal to L.

    Exists precisely because L is pointed; w induces the grading functional
    sigma(u) = w . u, constant on fibers and >= 1 on every unit vector, so
    degree scans bounded by sigma terminate.
    """
    if L.functional is None:
        raise NotPointedError("no strictly positive functional exists")
    return L.functional
