"""Basic fiber components and the generalized Scarf chain complexes.

The objects here live over a pointed lattice L in Z^n:

* finite subsets J of L with the "strictly shrinking maximum" property,
  their monomial sets C_J = {x^(bmax(J) - a) : a in J},
* basic components of fibers (the C_J that are gcd-free, minimally so,
  and full connected components of the gcd complex),
* the poset of basic components under divisibility translation, and
* the chain complexes built on them: the generalized algebraic Scarf
  complex, its algebraic Scarf subcomplex (components that are whole
  fibers), and the strongly algebraic subcomplex (cut down by Betti
  minimality and multiplicity one).

Monomials inside one structure are always kept in descending
lexicographic order (first coordinate most significant); the boundary map
signs are read off positions in that order.
"""

from functools import reduce
from operator import and_, sub

from .fibers import canonical_order, enumerate_fiber
from .homology import scan_degree_classes
from .lattice_core import _same_lattice, contains


class LatticeSubset:
    """A finite set of lattice elements, kept in a fixed order."""

    __slots__ = ("lattice", "members")

    def __init__(self, lattice, members):
        ms = canonical_order(set(tuple(m) for m in members))
        for m in ms:
            if not contains(lattice, m):
                raise ValueError("%r is not a lattice element" % (m,))
        self.lattice = lattice
        self.members = ms

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other):
        return (
            isinstance(other, LatticeSubset)
            and self.members == other.members
            and _same_lattice(self.lattice, other.lattice)
        )

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return "LatticeSubset(%r)" % (self.members,)


def bmax(J):
    """Componentwise maximum of the members; None for the empty set
    (a formal bottom below every vector)."""
    ms = tuple(map(tuple, J))
    if not ms:
        return None
    return tuple(max(col) for col in zip(*ms))


def vsupp(K, J):
    """Variables where some member of J sits strictly below bmax(K):
    {i : bmax(K)_i - a_i > 0 for some a in J}.  Nothing sits strictly
    below the formal bottom bmax([]), so an empty K gives no variable."""
    top = bmax(K)
    if top is None:
        return frozenset()
    return frozenset(i for a in J for i, x in enumerate(a) if top[i] - x > 0)


def monomials_of(J):
    """C_J = {x^(bmax(J) - a) : a in J}, in canonical order."""
    ms = tuple(map(tuple, J))
    top = bmax(ms)
    return canonical_order(tuple(x - y for x, y in zip(top, a)) for a in ms)


def in_generalized_scarf(J):
    """Membership of J in the generalized Scarf set of its lattice.

    Three conditions: every proper subset has a strictly smaller
    componentwise maximum; and any other lattice element below bmax(J)
    is ruled out entirely (|J| <= 2) or must give a monomial whose
    support avoids every variable seen in C_J (|J| > 2).
    """
    if not isinstance(J, LatticeSubset):
        raise TypeError("in_generalized_scarf expects a LatticeSubset")
    if not J.members:
        return True
    return _in_generalized_scarf(J, enumerate_fiber(J.lattice, bmax(J)))


def _in_generalized_scarf(J, fib):
    """in_generalized_scarf for a nonempty J, given the fiber of bmax(J)."""
    ms = J.members
    top = bmax(ms)
    # dropping any single element must strictly lower the maximum
    for k in range(len(ms)):
        rest = ms[:k] + ms[k + 1 :]
        if rest and bmax(rest) == top:
            return False
    # other lattice elements a <= top correspond to extra fiber monomials
    cj = set(monomials_of(J))
    extra = [u for u in fib if u not in cj]
    if len(ms) <= 2:
        return not extra
    vs = vsupp(J, J)
    for u in extra:
        if any(u[i] > 0 for i in vs):
            return False
    return True


class BasicComponent:
    """A basic component of a fiber: its degree class, its monomials
    (canonical order), and a witness subset J with C_J equal to it.

    whole is True when the component is its entire fiber; basic_components
    sets it as it cuts the component from that fiber, so it is False on a
    component built by hand.  It takes no part in equality or hashing."""

    __slots__ = ("degree", "monomials", "witness", "whole", "_boundary")

    def __init__(self, degree, monomials, witness):
        self.degree = degree
        self.monomials = canonical_order(monomials)
        self.witness = witness
        self.whole = False
        self._boundary = None

    @property
    def boundary(self):
        """theta(E_C) as (sign, gcd(C minus m), monomials of [C minus m])
        for each m in position order, computed on first read; the signs
        alternate from +, and a single monomial has none."""
        if self._boundary is None:
            ms, out = self.monomials, []
            for pos in range(len(ms) if len(ms) > 1 else 0):
                rest = ms[:pos] + ms[pos + 1 :]
                g = tuple(map(min, *rest)) if len(rest) > 1 else rest[0]
                reduced = tuple(tuple(map(sub, u, g)) for u in rest)
                out.append((-1 if pos % 2 else 1, g, reduced))
            self._boundary = tuple(out)
        return self._boundary

    @property
    def cardinality(self):
        return len(self.monomials)

    def __eq__(self, other):
        return (
            isinstance(other, BasicComponent)
            and self.monomials == other.monomials
            and self.degree == other.degree
        )

    def __hash__(self):
        return hash((self.degree.key, self.monomials))

    def __repr__(self):
        return "BasicComponent(%r)" % (self.monomials,)


def _recover_witness(L, degree, monomials):
    """J = {u0 - u : u in G} for the first monomial u0; then bmax(J) = u0
    (the gcd of G is 1) and C_J = G."""
    u0 = monomials[0]
    J = LatticeSubset(L, (tuple(a - b for a, b in zip(u0, u)) for u in monomials))
    return BasicComponent(degree, monomials, J)


def basic_components(F):
    """All basic components of the Fiber F, over the lattice of its degree.

    A subset G of the fiber qualifies when gcd(G) = 1, every proper
    puncture G minus a monomial has a nontrivial gcd, and G is the whole
    fiber (at most two monomials) or a connected component of the gcd
    complex (more than two).  Monomials have a nontrivial common divisor iff
    their supports share a variable, so both gcd tests are ANDs of the
    fiber's support masks (Fiber.masks): gcd(G) = 1 iff the AND over G is
    0 (the AND over no masks is -1, all bits), and each puncture is ANDed
    afresh, as a part holds at most two masks or at most n (see below).
    So the zero class contributes the single component {1}, and an empty
    fiber or a single monomial other than 1 contributes none.

    A component is read from the fiber's distinct masks
    (Fiber.mask_unions), and two rejections need no member: a component
    with a repeated mask, since dropping one copy leaves the AND as it
    was, zero or not; and one of more than n distinct masks, since each
    member m of a qualifying G has a variable in every other member's
    support but not in m's, and no two members share it.  Members are
    gathered only for a component that passes the AND tests.  Every
    returned component is cross-checked through the scarf membership test
    of its recovered witness, and is marked whole when it is the entire
    fiber.
    """
    L, masks = F.degree.lattice, F.masks
    if len(F) > 2:
        distinct, unions = F.mask_unions
        parts = []
        for _k, u in unions:
            mine = list(filter(u.__and__, distinct))
            # no repeated mask: as many members as distinct masks
            if len(mine) <= L.n and sum(map(masks.count, mine)) == len(mine):
                parts.append(sorted(map(masks.index, mine)))
    else:
        parts = [range(len(F))]
    out = []
    for part in parts:
        ands = [masks[k] for k in part]
        if reduce(and_, ands, -1) or not all(
            reduce(and_, ands[:k] + ands[k + 1 :], -1) for k in range(len(ands))
        ):
            continue  # a common divisor, or a puncture without one
        c = _recover_witness(L, F.degree, [F.members[k] for k in part])
        # bmax(witness) = the first member of the part, a member of F
        if not _in_generalized_scarf(c.witness, F):
            raise RuntimeError("recovered witness failed membership")
        c.whole = len(part) == len(F)
        out.append(c)
    return out


def is_basic_fiber(F):
    """Is the whole Fiber F a single basic component?"""
    comps = basic_components(F)
    return len(comps) == 1 and comps[0].whole


class ScarfPoset:
    """Basic components found within a scan bound, with the divisibility
    order: C' <= C iff some monomial translate x^r * C' lands inside C.
    leq, the strict pairs (i, j) with element i < element j, is built on
    its first read and checked antisymmetric there; the complexes never
    read it."""

    def __init__(self, lattice, elements, bound):
        self.lattice = lattice
        self.elements = tuple(elements)
        self.bound = bound
        self._leq = None

    @property
    def leq(self):
        if self._leq is None:
            comps, leq = self.elements, set()
            for i, ci in enumerate(comps):
                for j, cj in enumerate(comps):
                    if i == j or ci.cardinality > cj.cardinality:
                        continue
                    if _translate_into(ci.monomials, cj.monomials):
                        leq.add((i, j))
            for i, j in leq:
                if (j, i) in leq:
                    raise RuntimeError("translation order is not antisymmetric")
            self._leq = frozenset(leq)
        return self._leq

    def by_cardinality(self, k):
        return tuple(c for c in self.elements if c.cardinality == k)

    def max_cardinality(self):
        return max((c.cardinality for c in self.elements), default=0)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "ScarfPoset(%d elements, bound=%r)" % (len(self.elements), self.bound)


def _translate_into(small, big):
    """Is there r >= 0 with r + small a subset of big (as monomial sets)?"""
    anchor = small[0]
    bigset = set(big)
    for m in big:
        r = tuple(a - b for a, b in zip(m, anchor))
        if any(x < 0 for x in r):
            continue
        if all(tuple(a + b for a, b in zip(r, u)) in bigset for u in small):
            return True
    return False


def enumerate_scarf_poset(L, bound, functional=None):
    """All basic components whose degree lies within the scan bound,
    ordered deterministically, with their translation order (built on
    its first read)."""
    return scarf_poset(scan_degree_classes(L, bound, functional))


def scarf_poset(atlas):
    """The ScarfPoset of an Atlas: the basic components of the fibers it
    carries (a cone has none), in (functional value, degree key,
    monomials) order.  The fibers come in (value, key) order, so only
    the components of one fiber need sorting.  The translation order
    waits for its first read (ScarfPoset.leq)."""
    comps = []
    for fib in atlas.fibers:
        comps += sorted(basic_components(fib), key=lambda c: c.monomials)
    return ScarfPoset(atlas.lattice, comps, atlas.bound)


class AlgebraicComplex:
    """A chain complex of free modules with monomial-times-sign entries.

    basis[i] is the tuple of basic components in homological degree i
    (components of cardinality i+1).  The differentials are a function of
    the basis: differentials[i] maps (row, col) to the tuple of (sign,
    exponent) terms of basis[i][col].boundary whose target monomials are
    those of basis[i-1][row].  A target missing from basis[i-1] raises
    ValueError, whether the basis is a poset the scan bound does not
    close or a restriction to cells not closed under the differential.
    """

    def __init__(self, lattice, basis):
        self.lattice = lattice
        self.basis = tuple(tuple(bs) for bs in basis)
        diffs = []
        for lower, cells in zip(((),) + self.basis, self.basis):
            # a component's monomials fix its degree, the class of any of them
            index = {c.monomials: k for k, c in enumerate(lower)}
            d = {}
            for col, c in enumerate(cells):
                for sign, g, target in c.boundary:
                    row = index.get(target)
                    if row is None:
                        raise ValueError(
                            "differential target %r of %r is not in the basis "
                            "one degree down" % (target, c)
                        )
                    d.setdefault((row, col), []).append((sign, g))
            diffs.append({k: tuple(v) for k, v in d.items()})
        self.differentials = tuple(diffs)

    def ranks(self):
        return tuple(len(bs) for bs in self.basis)

    def top_degree(self):
        return len(self.basis) - 1

    def __repr__(self):
        return "AlgebraicComplex(ranks=%r)" % (self.ranks(),)


def build_generalized_scarf_complex(poset):
    """The chain complex on all poset elements: E_C sits in homological
    degree |C| - 1, and

        theta(E_C) = sum over m in C of
            (-1)^(position of m in C) * gcd(C minus m) * E_[C minus m]

    with [G] the gcd-free reduction of G, positions 1-based in the
    canonical descending order (so the first position gets +); see
    BasicComponent.boundary."""
    cells = [poset.by_cardinality(k + 1) for k in range(poset.max_cardinality())]
    return AlgebraicComplex(poset.lattice, cells)


def verify_zero_composition(X):
    """Check theta_i . theta_{i+1} = 0 for every consecutive pair."""
    for i in range(2, X.top_degree() + 1):
        lo, hi = X.differentials[i - 1], X.differentials[i]
        acc = {}
        for (mid, col), terms2 in hi.items():
            for (row, mid2), terms1 in lo.items():
                if mid2 != mid:
                    continue
                for s2, e2 in terms2:
                    for s1, e1 in terms1:
                        e = tuple(a + b for a, b in zip(e1, e2))
                        k = (row, col, e)
                        acc[k] = acc.get(k, 0) + s1 * s2
        if any(v for v in acc.values()):
            return False
    return True


def _restrict(X, kept):
    """Subcomplex on the cells E_C of degree i with kept(i, C), less empty
    top degrees.  The callers only restrict to families closed under
    theta; AlgebraicComplex raises ValueError on any other."""
    basis = [[c for c in bs if kept(i, c)] for i, bs in enumerate(X.basis)]
    while basis and not basis[-1]:
        basis.pop()
    return AlgebraicComplex(X.lattice, basis)


def algebraic_scarf_subcomplex(X):
    """Restrict to the components that are entire fibers.  Those are the
    components marked whole by basic_components, which cut them from
    their complete scanned fibers, so no fiber is enumerated here.  The
    unit component is its whole fiber, so degree 0 is kept."""
    return _restrict(X, lambda _i, c: c.whole)


def strongly_algebraic_subcomplex(X, T, mode="strict"):
    """Restrict to components at minimal Betti degrees of multiplicity one.

    Both modes require beta_{i,b} = 1 for E_C in homological degree
    i = |C| - 1 >= 1, b = b(C), and keep E_C iff no rival degree
    d != b of the table divides b.  For mode="strict" the rivals are
    the j-Betti degrees of every j with beta_{j,b} > 0, so b is
    minimal (in the divisibility order, literally applied) at each
    index where it carries a Betti number.  For mode="paper-example"
    they are the i-Betti degrees with beta != 1, a relaxation that
    retains everything strict keeps and possibly more.

    Degree 0 (the unit component) is always kept.  Components that are
    entire fibers satisfy both modes (their Betti number sits alone at
    its own index with multiplicity one, at a minimal degree), so both
    results contain the algebraic Scarf subcomplex and are closed under
    the differential.
    """
    if mode not in ("strict", "paper-example"):
        raise ValueError("mode must be 'strict' or 'paper-example'")
    if not _same_lattice(X.lattice, T.lattice):
        raise ValueError("classes live over different lattices")

    def kept(i, c):
        if i == 0:
            return True
        b = c.degree
        if T.get(i, b) != 1:
            return False
        if mode == "strict":
            rivals = [d for j, d in T.entries if (j, b) in T.entries]
        else:
            rivals = [d for (j, d), v in T.entries.items() if j == i and v != 1]
        return not any(d != b and T.leq(d, b) for d in rivals)

    return _restrict(X, kept)


def indispensable_binomials(L, bound, functional=None):
    """Binomials whose degree is a minimal 1-Betti degree with a two-
    monomial gcd-free fiber: x^m1 - x^m2 written as the ordered pair
    (m1, m2), m1 the lexicographically larger exponent.  Those fibers are
    {u, v} with disjoint supports, and binomials proves their degree
    always minimal."""
    return binomials(scan_degree_classes(L, bound, functional))[1]


def minimal_generators(L, bound, functional=None):
    """A minimal generating set for the lattice ideal, within the bound.

    For each 1-Betti degree the gcd complex of the fiber splits into
    k >= 2 connected components; one representative monomial per
    component, connected to the first component's representative, gives
    k - 1 binomials, and all of them together generate minimally."""
    return binomials(scan_degree_classes(L, bound, functional))[0]


def binomials(atlas):
    """(generators, indispensables) of an Atlas, as minimal_generators and
    indispensable_binomials give them, from the gcd components
    (Fiber.mask_unions) of the fibers it carries (a cone is connected, so
    beta_1 = 0 there).  beta_1 of a class is its number of gcd components
    less one.  The indispensables are the fibers of two members in two
    gcd components; their degrees are minimal, so no minimality pass is
    needed: were a 1-Betti degree d != b below b, a nonzero monomial m
    in b - d and two members a != a' of fiber(d) would give members
    a + m, a' + m of fiber(b) that share supp(m)."""
    generators, indispensables = [], []
    for fib in atlas.fibers:
        unions = fib.mask_unions[1]
        if len(unions) < 2:
            continue
        b = fib.degree
        if len(fib) == 2:
            indispensables.append((b, fib.members))
        base, *rest = [fib.members[k] for k, _u in unions]
        for m in rest:
            generators.append((b, (m, base) if m > base else (base, m)))
    return generators, indispensables
