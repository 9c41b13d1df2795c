"""Fiber enumeration and monomial arithmetic on exponent vectors.

A monomial is an exponent tuple u in N^n.  The fiber of a degree class b
is the finite set of monomials congruent to a representative of b modulo
the lattice; monomials are kept in a fixed canonical order (descending
lexicographic, first coordinate most significant) so that every structure
built on fibers is deterministic.
"""

import struct
from bisect import bisect_right
from itertools import repeat
from operator import rshift

from .lattice_core import DegreeClass, _same_lattice
from .linalg import integer_solutions, size_reduce


def canonical_order(monomials):
    """Descending lexicographic order, first coordinate most significant."""
    return tuple(sorted(monomials, reverse=True))


class MemberPacking:
    """The degree scan's private format for the fibers it unions; no Fiber
    holds it.  Monomials of n variables with exponents up to top, one int each:
    u packs as (u_0 ... u_{n-1} in fixed-width byte fields, u_0 most
    significant) << n | support_mask(u).  Distinct monomials differ above
    the mask, so descending int order is canonical order, and 0 packs the
    monomial 1.  A field takes the fewest bytes of a struct code (1, 2, 4
    or 8) that hold top; wider exponents raise ValueError."""

    __slots__ = ("n", "units", "_struct")

    def __init__(self, n, top):
        for code in "BHIQ":
            width = 8 * struct.calcsize(code)
            if not top >> width:
                break
        else:
            raise ValueError("exponents up to %d do not fit 8-byte fields" % top)
        self.n, self._struct = n, struct.Struct(">%d%s" % (n, code))
        # units[j] adds 1 to u_j
        self.units = tuple(1 << n + width * (n - 1 - j) for j in range(n))

    def step(self, packed, j):
        """u + e_j for each packed u, in their order."""
        return list(map((1 << j).__or__, map(self.units[j].__add__, packed)))

    def step_first(self, packed, j):
        """u + e_j for each u of the descending packed list with u_k = 0
        for every k < j, in their order, so that j is the first positive
        index of u + e_j.  Those u are the ints below units[j - 1]: a
        suffix of the list, found by bisection unless an end settles it."""
        if j and packed:
            low = self.units[j - 1]
            if packed[0] >= low:
                if packed[-1] >= low:
                    return []
                packed = packed[bisect_right(packed, -low, key=int.__neg__) :]
        return self.step(packed, j)

    def masks(self, packed):
        """The support masks of the packed members: their low n bits."""
        return tuple(map(((1 << self.n) - 1).__and__, packed))

    def unpack(self, packed):
        """The exponent tuples of the packed members, in their order."""
        st = self._struct
        if not st.size:
            return ((),) * len(packed)
        shifted = map(rshift, packed, repeat(self.n))
        data = b"".join(map(int.to_bytes, shifted, repeat(st.size), repeat("big")))
        return tuple(st.iter_unpack(data))


class Fiber:
    """The set of monomials in one degree class, canonically ordered.

    masks[k] is the support mask (support_mask) of members[k]: the gcd
    complex, its components and the homology of the fiber depend on the
    masks alone.  A scanned fiber comes with its masks; an enumerated one
    computes them on first read.  mask_unions, the one pass over the
    distinct masks, is computed on first read and shared by
    homology.gcd_components, scarf.basic_components and scarf.binomials."""

    __slots__ = ("degree", "members", "_masks", "_unions")

    def __init__(self, degree, members):
        self.degree = degree
        self.members = canonical_order(members)
        self._masks = self._unions = None

    @classmethod
    def _with_masks(cls, degree, members, masks):
        """The fiber of members in canonical order, with their masks."""
        fib = cls.__new__(cls)
        fib.degree, fib.members, fib._masks, fib._unions = degree, members, masks, None
        return fib

    @property
    def masks(self):
        """The members' support masks, computed on first read."""
        if self._masks is None:
            self._masks = tuple(map(support_mask, self.members))
        return self._masks

    @property
    def mask_unions(self):
        """(distinct, unions), the one pass over the distinct masks:
        distinct holds the members' masks once each, in member order, and
        unions lists (k, u) for each union u of distinct nonzero masks
        that meet, k the index of its first member, in member order.

        Two members are joined in the gcd complex when their support masks
        meet, so each connected component covers one such union, disjoint
        from the others.  Each distinct mask absorbs every union it meets,
        so the unions stay disjoint.  The monomial 1 lies in no union."""
        if self._unions is None:
            masks = self.masks
            distinct = tuple(dict.fromkeys(masks))
            unions = []
            for s in distinct:
                if s:
                    rest = []
                    for u in unions:
                        if u & s:
                            s |= u
                        else:
                            rest.append(u)
                    unions = rest + [s]
            # a union's first member has the first of its distinct masks
            firsts = [masks.index(next(filter(u.__and__, distinct))) for u in unions]
            self._unions = distinct, sorted(zip(firsts, unions))
        return self._unions

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

    u0 may have negative entries (any class representative).  A
    Fourier-Motzkin descent (linalg.integer_solutions) enumerates the z in
    Z^r with u = u0 + z * B >= 0, for B = linalg.size_reduce(L.rows),
    which spans L and puts the shortest row at the last level.
    """
    u0 = tuple(u0)
    n, r = L.n, L.r
    if len(u0) != n:
        raise ValueError("vector has wrong dimension")
    B = size_reduce(L.rows)
    # row j is (column j of B, u0[j]): its value at z is u_j
    rows = [(tuple(row[j] for row in B), x) for j, x in enumerate(u0)]
    members = [u for z, u in integer_solutions(rows, r)]
    fib = Fiber(DegreeClass(L, u0), members)
    if n and min(map(min, fib.members), default=0) < 0:
        m = next(m for m in fib.members if min(m) < 0)
        raise RuntimeError("fiber member %r has a negative entry" % (m,))
    return fib


def class_leq(d, b):
    """The divisibility (semigroup) order: d <= b iff b - d has a
    nonnegative representative, i.e. the fiber of b - d is nonempty."""
    if not _same_lattice(d.lattice, b.lattice):
        raise ValueError("classes live over different lattices")
    diff = tuple(x - y for x, y in zip(b.representative, d.representative))
    return len(enumerate_fiber(b.lattice, diff)) > 0


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
