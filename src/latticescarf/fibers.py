"""Fiber enumeration and monomial arithmetic on exponent vectors.

A monomial is an exponent tuple u in N^n.  The fiber of a degree class b
is the finite set of monomials congruent to a representative of b modulo
the lattice; monomials are kept in a fixed canonical order (descending
lexicographic, first coordinate most significant) so that every structure
built on fibers is deterministic.
"""

from .lattice_core import _same_lattice, class_of
from .linalg import integer_solutions


def canonical_order(monomials):
    """Descending lexicographic order, first coordinate most significant."""
    return tuple(sorted(monomials, reverse=True))


class Fiber:
    """The set of monomials in one degree class, canonically ordered.

    masks[k] is the support mask (support_mask) of members[k]: the gcd
    complex, its components and the homology of the fiber depend on the
    masks alone."""

    __slots__ = ("degree", "members", "_masks", "_components")

    def __init__(self, degree, members):
        self.degree = degree
        self.members = canonical_order(members)
        self._masks = self._components = None

    @classmethod
    def _with_masks(cls, degree, members, masks):
        """The fiber whose members, a tuple in canonical order, have the
        tuple of masks."""
        fib = cls.__new__(cls)
        fib.degree, fib.members, fib._masks = degree, members, masks
        fib._components = None
        return fib

    @property
    def masks(self):
        """The members' support masks, computed on first read unless the
        fiber was built with them: a fiber query that prints only the
        members computes none."""
        if self._masks is None:
            self._masks = tuple(map(support_mask, self.members))
        return self._masks

    @property
    def components(self):
        """The connected components of the gcd complex: tuples of members
        in fiber order, ordered by their first member.  Computed on first
        read, so the basic components and the binomials of one atlas
        share one pass.

        Two members are joined when their support masks meet, so each
        component covers a union of supports disjoint from the others'
        unions.  Each distinct support mask absorbs every union it meets,
        so the unions stay disjoint; a member belongs to the union its mask
        meets.  The monomial 1 lies in no component.
        """
        if self._components is None:
            distinct = set(self.masks) - {0}
            unions = []
            for s in distinct:
                rest = []
                for u in unions:
                    if u & s:
                        s |= u
                    else:
                        rest.append(u)
                unions = rest + [s]
            union_of = {s: u for u in unions for s in distinct if s & u}
            groups = {}
            for m, s in zip(self.members, self.masks):
                if s:
                    groups.setdefault(union_of[s], []).append(m)
            self._components = tuple(tuple(g) for g in groups.values())
        return self._components

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, m):
        return tuple(m) in self.members

    def __eq__(self, other):
        return (
            isinstance(other, Fiber)
            and self.members == other.members
            and self.degree == other.degree
        )

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return "Fiber(%r, %d monomials)" % (self.degree.representative, len(self))


def enumerate_fiber(L, u0):
    """All monomials congruent to u0 mod L, as a Fiber.

    u0 may have negative entries (any class representative).  Each call
    runs a Fourier-Motzkin enumeration of the z in Z^r with
    u = u0 + z * B >= 0, whose descent (linalg.integer_solutions) carries
    each member u along with z; a degree scan builds its fibers without
    one (see homology.scan_degree_classes).  The fiber's masks are
    computed on first read.
    """
    u0 = tuple(u0)
    n, r = L.n, L.r
    if len(u0) != n:
        raise ValueError("vector has wrong dimension")
    # row j is (column j of B, u0[j]): its value at z is u_j
    rows = [(tuple(row[j] for row in L.rows), x) for j, x in enumerate(u0)]
    members = [u for z, u in integer_solutions(rows, r)]
    fib = Fiber(class_of(L, u0), members)
    if n and min(map(min, fib.members), default=0) < 0:
        m = next(m for m in fib.members if min(m) < 0)
        raise RuntimeError("fiber member %r has a negative entry" % (m,))
    return fib


def fiber_of(L, b):
    """b itself when it is a Fiber, else the fiber of the class that b (a
    representative or a DegreeClass) names.  A Fiber or DegreeClass over
    another lattice raises ValueError."""
    if isinstance(b, (tuple, list)):
        return enumerate_fiber(L, b)
    degree = b.degree if isinstance(b, Fiber) else b
    if not _same_lattice(L, degree.lattice):
        raise ValueError("classes live over different lattices")
    return b if isinstance(b, Fiber) else enumerate_fiber(L, b.representative)


def support_mask(u):
    """The support of u as an int: bit i is set iff u_i > 0.  Monomials
    share a nontrivial common divisor iff the AND of their masks is
    nonzero."""
    mask = 0
    for i, x in enumerate(u):
        if x > 0:
            mask |= 1 << i
    return mask


def gcd_of(monomials):
    """Componentwise min -- the gcd of the monomials as an exponent vector."""
    ms = list(monomials)
    if not ms:
        raise ValueError("gcd of an empty set of monomials")
    return tuple(min(col) for col in zip(*ms))


def reduce_by_gcd(monomials):
    """Divide every monomial by the common gcd; the result has gcd 1."""
    ms = list(monomials)
    g = gcd_of(ms)
    return tuple(tuple(x - y for x, y in zip(m, g)) for m in canonical_order(ms))


def monomial_str(u, variables):
    """Render an exponent vector, e.g. (2,0,1) -> 'a^2*c'."""
    parts = []
    for x, v in zip(u, variables):
        if x == 1:
            parts.append(v)
        elif x > 1:
            parts.append("%s^%d" % (v, x))
    return "*".join(parts) if parts else "1"
