"""Homology of fibers from their support masks, and Betti number scans.

beta_{i,b} is the reduced homology of the complex on the variables whose
faces are the subsets of the fiber's monomial supports (Miller-Sturmfels'
squarefree divisor complex, Combinatorial Commutative Algebra, Thm 9.2).
reduced_homology_dims reads that complex from its facets, as vertex
bitmasks.  The complex is the nerve of the cover of the gcd complex
(vertices = fiber monomials, faces = subsets with a nontrivial common
divisor) by the full simplices V_i = {m : x_i divides m}, so the two
have the same reduced homology.  The connected components of a gcd
complex need no complex at all: gcd_components merges the support
masks that meet.

The ranks are exact, over GF(2) first (see reduced_homology_dims).  When
the maximal supports of a fiber share a vertex the complex is a cone, so
beta_{i,b} = 0 for every i.  A degree scan (scan_degree_classes) returns
an Atlas of the other classes, their values and maximal supports, in
(value, key) order; betti_table ranks the prefix up to its table bound
(by default the scan's) and keeps that order, and scarf.scarf_poset and
scarf.binomials read the fibers, which the Atlas builds on first read.

Multigraded Betti numbers follow the convention

    beta_{i,b} = dim H~_{i-1}(complex of the supports of the fiber of b),
    i >= 1.
"""

from bisect import bisect_right
from collections import defaultdict
from functools import cache, reduce
from itertools import chain
from operator import and_, mul, or_, sub

from .fibers import Fiber, MemberPacking
from .lattice_core import (
    CosetPacking,
    DegreeClass,
    ScannedClasses,
    _same_lattice,
)
from .linalg import is_prime, rank_exact, rank_gf2


def _maximal_masks(masks):
    """The distinct nonzero masks not contained in another, largest first."""
    out = []
    for s in sorted(set(masks), key=int.bit_count, reverse=True):
        for t in out:
            if s & t == s:  # s lies in a kept t
                break
        else:
            if s:
                out.append(s)
    return out


def _signed_rows(boundary):
    """The integer matrix of a boundary map given as rows of bits
    1 << (position of a facet), in vertex order, as sparse rows
    {position: sign}: their signs alternate +1, -1, ..."""
    rows = []
    for bits in boundary:
        row, sign = {}, 1
        for b in bits:
            row[b.bit_length() - 1] = sign
            sign = -sign
        rows.append(row)
    return rows


def check_field(field):
    """Raise ValueError unless field is "q" (the rationals) or a prime int
    p (GF(p)).  "Q" is refused: only the command line takes that spelling."""
    if field != "q" and not (type(field) is int and is_prime(field)):
        raise ValueError("field must be 'q' or a prime integer")


def reduced_homology_dims(facets, field="q"):
    """Reduced homology dimensions {j: dim}, from j = -1 up to the
    dimension of the complex whose faces are built, of the complex
    generated by facets, an iterable of nonnegative int vertex bitmasks
    (vertex v is bit v); any other mask raises ValueError.

    Uses the augmented chain complex, so the empty complex {emptyset}
    (no nonzero mask) reports {-1: 1} and any nonempty complex reports
    {-1: 0, ...}.  field is "q" for the rationals or an int prime p for
    GF(p); any other field, "Q" included, raises ValueError (check_field).

    When there are fewer maximal facets than vertices the faces are those
    of the nerve of the facets instead: vertex k for facet F_k, and for
    each vertex v the face {k : v in F_k}.  Nonempty intersections of
    facets are simplices, so the nerve has the same reduced homology
    (nerve lemma).  The faces are built one dimension at a time, from the
    top down, with the boundary map into them: the (j-1)-faces are the
    maximal ones of that dimension and each j-face less one vertex.

    Over Q and GF(2) each boundary map d_j (from the j-faces to the
    (j-1)-faces) is first ranked over GF(2), every row an int bitset
    (linalg.rank_gf2).  A nonzero minor mod 2 is a nonzero integer minor,
    so rank_Q d_j >= rank_2 d_j; and the Q homology, the GF(2) homology
    less these gaps, is never negative.  So
    0 <= rank_Q d_j - rank_2 d_j <= min(dim H~_{j-1}, dim H~_j) over GF(2)
    (universal coefficients: Hatcher, Algebraic Topology, 3.A).  Over Q
    only a map with homology on both sides is ranked again, exactly
    (linalg.rank_exact on sparse rows), going up in j, with the dimensions
    that the gaps below it left: its gap comes off both degrees, and every
    other GF(2) rank is its Q rank.  GF(2) takes the bitset ranks alone.
    An odd prime p ranks each map mod p by the same exact routine, since
    GF(2) bounds its ranks in neither direction.
    """
    check_field(field)
    masks = set(facets)
    if not all(type(s) is int and s >= 0 for s in masks):
        raise ValueError("facets must be nonnegative int bitmasks")
    return _facet_homology(_maximal_masks(masks), field)


def _facet_homology(facets, field):
    """reduced_homology_dims of the complex of the maximal masks facets,
    largest first, over a checked field."""
    if len(facets) < reduce(or_, facets, 0).bit_count():
        nerve = {}  # vertex bit -> the facets that contain it
        for k, f in enumerate(facets):
            while f:
                low = f & -f
                nerve[low] = nerve.get(low, 0) | 1 << k
                f ^= low
        facets = _maximal_masks(nerve.values())
    if not facets:
        return {-1: 1}
    # size[k]: face -> position for the faces of k vertices (dimension
    # k - 1); size[0] holds the empty face, so the augmentation is the map
    # out of size[1], of rank 1 on a complex with a vertex.  maps[k], the
    # map out of size[k] for k >= 2: for each face f the bits 1 <<
    # (position of f minus a vertex), in vertex order; over GF(2) the row
    # is their sum.  A face of k - 1 vertices is a facet or lies in one of
    # k, so size[k - 1] is whole before it is read.
    top = facets[0].bit_count() + 1
    size = [{0: 0}] + [{} for _ in range(1, top)]
    for f in facets:
        size[f.bit_count()].setdefault(f, len(size[f.bit_count()]))
    maps = [None] * top
    ranks = [0] * (top + 1)  # ranks[k]: the rank of the map out of size[k]
    ranks[1] = 1
    for k in range(top - 1, 1, -1):
        lower, maps[k] = size[k - 1], []
        for f in size[k]:
            rest, row = f, []
            while rest:
                low = rest & -rest
                row.append(1 << lower.setdefault(f ^ low, len(lower)))
                rest ^= low
            maps[k].append(row)
        if field in ("q", 2):
            ranks[k] = rank_gf2(map(sum, maps[k]))
        else:
            ranks[k] = rank_exact(_signed_rows(maps[k]), field)
    dims = {k - 1: len(size[k]) - ranks[k] - ranks[k + 1] for k in range(top)}
    if field == "q":
        for k in range(2, top):
            if dims[k - 2] and dims[k - 1]:
                extra = rank_exact(_signed_rows(maps[k])) - ranks[k]
                dims[k - 2] -= extra
                dims[k - 1] -= extra
    return dims


def gcd_components(F):
    """The connected components of the gcd complex of the Fiber F: tuples
    of members in fiber order, one per union of F.mask_unions, ordered by
    their first member."""
    return tuple(
        tuple(m for m, s in zip(F.members, F.masks) if s & u)
        for _k, u in F.mask_unions[1]
    )


def betti_at(F, i, field="q"):
    """beta_{i,b} = dim H~_{i-1} of the complex of the supports of the
    Fiber F of b."""
    if i < 1:
        raise ValueError("betti_at is defined for homological degree i >= 1")
    return reduced_homology_dims(F.masks, field).get(i - 1, 0)


class Atlas:
    """A degree scan.  scanned holds every class it reached, as packed
    keys (lattice_core.ScannedClasses): len() counts them, and v in
    scanned asks whether the class of the integer vector v was reached.
    degrees holds the DegreeClasses of the classes whose maximal support
    masks share no variable, in (functional value, canonical key) order,
    and values[k] is the value of degrees[k], so values is nondecreasing;
    facets[k] lists the maximal nonzero masks of degrees[k], largest
    first.  fibers[k] is the Fiber of degrees[k]: the function fibers
    builds them all on the first read, which then drops it and the scan
    state it holds.

    Dropping the others loses nothing.  Say their maximal masks all hold
    variable v.  The support complex is a cone: every beta is 0.  Every
    nonzero mask lies in a maximal one, so the gcd complex is connected
    through v: beta_1 = 0, and no generator or indispensable binomial.
    No basic component G: |G| = 1 needs G = {1}, the zero class, whose
    mask 0 is not maximal; |G| = 2 is a whole fiber with disjoint
    supports, which share nothing; |G| > 2 is the whole fiber, where some
    m0 lacks v and its mask lies in that of some m1 != m0 holding v, so
    the common variable x of G minus m1, not in supp(m1), lies in supp(m0)
    inside supp(m1)."""

    def __init__(
        self, lattice, bound, functional, scanned, values, degrees, facets, fibers
    ):
        self.lattice = lattice
        self.bound = bound
        self.functional = functional
        self.scanned = scanned
        self.values = values
        self.degrees = degrees
        self.facets = facets
        self._fibers = fibers

    @property
    def fibers(self):
        if callable(self._fibers):
            self._fibers = self._fibers()
        return self._fibers

    def __len__(self):
        return len(self.scanned)


def scan_degree_classes(L, bound, functional=None):
    """The Atlas of all degree classes with a nonnegative representative
    of functional value <= bound.

    The bound must be a nonnegative int (the zero class has value 0).
    The functional must be strictly positive ints and orthogonal to L, so
    that it is constant on fibers; by default one is computed from the
    lattice.  No bool counts as an int.
    A depth-first search steps b -> b + e_j from the zero class, adding a
    move to the packed key of b (lattice_core.CosetPacking).  Each class
    keeps its key, its value and n * p + j, the step from class p that
    found it, which carried classes walk back for their representatives.
    The search files each class it finds under its value, and a pass over
    the values in increasing order, each value's classes in the order
    they were found, finds the steps into b again by key lookup.
    cone(0) = 0 and cone(b) = AND over the scanned b - e_j of (cone(b -
    e_j) | 1 << j); only a class of cone mask 0 looks its steps up again,
    for its maximal support masks: F | 1 << j for j its lowest variable
    and F a maximal mask of b - e_j with no variable below j.  It is
    carried, with a representative and a DegreeClass, when they share no
    variable (see Atlas).  The first read of atlas.fibers unions packed
    members (fibers.MemberPacking) on the down-set of the carried classes
    and decodes theirs.  For bit j of cone(b) every monomial has u_j >= 1,
    so fiber(b) = fiber(b - e_j) + e_j (MemberPacking.step); a class of
    cone mask 0 takes u + e_j over its steps for the u with u_0 ...
    u_{j-1} all 0, each monomial once, in canonical order
    (MemberPacking.step_first).
    """
    w = tuple(functional) if functional is not None else L.functional
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (bound, *w)):
        raise ValueError("scan bound and functional must be integers")
    if bound < 0:
        raise ValueError("scan bound must be nonnegative, not %r" % (bound,))
    if len(w) != L.n or any(x < 1 for x in w):
        raise ValueError("functional must be strictly positive of length n")
    if any(sum(x * y for x, y in zip(w, row)) for row in L.rows):
        raise ValueError("functional must vanish on the lattice")
    n = L.n
    # u_j <= bound // w_j for a monomial of value <= bound
    layout = MemberPacking(n, max((bound // x for x in w), default=0))
    packing = CosetPacking(L, bound, w)
    low, moves = packing.low, packing.moves
    # the moves out of a key with torsion digits t (key & low), made once
    @cache
    def ups(t):
        return tuple(zip(range(n), w, moves(t, 1)))

    @cache
    def downs(t):
        return tuple((m, 1 << j) for j, m in enumerate(moves(t, -1)))

    # a key's digits are 0 when low is: then up and down serve every key
    up, down = ups(0), downs(0)
    start = packing.pack((0,) * n)
    ids = {start: 0}
    keys, values, found = [start], [0], [0]
    # levels[v]: the classes of value v > 0, in the order they were found
    levels = defaultdict(list)
    stack = [0]
    while stack:
        i = stack.pop()
        key, s = keys[i], values[i]
        room, base = bound - s, n * i
        for j, wj, move in ups(key & low) if low else up:
            if wj <= room:
                key2 = key + move
                if key2 not in ids:
                    ids[key2] = c = len(keys)
                    stack.append(c)
                    keys.append(key2)
                    values.append(s + wj)
                    levels[s + wj].append(c)
                    found.append(base + j)
    get = ids.get
    cone = [0] * len(keys)
    # the maximal masks of class i lie among the F | ext[i] for F in
    # fac[i] (mask 0 alone for the zero class); steps[i]: n * p + j for
    # each step from class p that class i reads
    fac, ext, steps = [None] * len(keys), [0] * len(keys), {0: ()}
    fac[0] = [0]

    def facets_of(i):
        # a cone class reads b - e_j alone, j its lowest cone bit, down the
        # chain to a class that has its masks
        chain = []
        while fac[i] is None:
            key, c = keys[i], cone[i]
            j = (c & -c).bit_length() - 1
            p = ids[key + (downs(key & low) if low else down)[j][0]]
            steps[i] = (n * p + j,)
            chain.append(i)
            i = p
        fs, extra = fac[i], ext[i]
        for i in reversed(chain):
            extra |= 1 << steps[i][0] % n
            fac[i], ext[i] = fs, extra
        return fs

    carried = [0]
    for i in chain.from_iterable(map(levels.__getitem__, sorted(levels))):
        key, mask = keys[i], -1
        back_moves = downs(key & low) if low else down
        for back, bit in back_moves:
            p = get(key + back)
            if p is not None:
                mask &= cone[p] | bit
        if mask:
            cone[i] = mask
            continue
        j, into, faces = 0, [], []
        for back, bit in back_moves:
            p = get(key + back)
            if p is not None:
                fs = fac[p] or facets_of(p)  # first: it sets ext[p]
                extra = ext[p] | bit
                for f in fs:
                    f |= extra
                    if not f & bit - 1:
                        faces.append(f)
                into.append(n * p + j)
            j += 1
        steps[i], fac[i] = into, _maximal_masks(faces)
        if not reduce(and_, fac[i]):  # else a cone (see Atlas)
            carried.append(i)
    out = []
    for i in carried:
        rep, k = [0] * n, i
        while k:
            v = found[k]
            rep[v % n] += 1
            k = v // n
        b = DegreeClass(L, rep)
        out.append((values[i], b.key, i, b, fac[i] if i else []))
    out.sort(key=lambda c: c[:2])
    # the zero class is carried
    sigma, _keys, carried, degrees, facets = zip(*out)

    def fibers():
        # members[i]: fiber i packed, in descending int order (canonical)
        need, stack = set(), list(carried)
        while stack:
            i = stack.pop()
            if i not in need:
                need.add(i)
                stack += map(n.__rfloordiv__, steps[i])
        members = {0: [0]}  # the monomial 1
        for i in sorted(need, key=values.__getitem__)[1:]:
            step, ms = layout.step if cone[i] else layout.step_first, []
            for v in steps[i]:
                p, j = divmod(v, n)
                ms += step(members[p], j)
            members[i] = ms
        return tuple(
            Fiber._with_masks(b, layout.unpack(ms), layout.masks(ms))
            for b, ms in zip(degrees, map(members.__getitem__, carried))
        )

    scanned = ScannedClasses(packing, ids)
    return Atlas(L, bound, w, scanned, sigma, degrees, facets, fibers)


class BettiTable:
    """Nonzero multigraded Betti numbers read from an Atlas up to a table
    bound, with its lattice, functional and every class its scan visited.
    The table bound is at most the scan's; get and leq refuse what lies
    past it, as a table scanned to that bound would, and scanned answers
    exactly for every class of value up to it."""

    def __init__(self, atlas, entries, bound):
        self.lattice = atlas.lattice
        self.entries = dict(entries)  # (i, DegreeClass) -> positive int
        self.bound = bound
        self.functional = atlas.functional
        self.scanned = atlas.scanned

    def leq(self, d, b):
        """Divisibility d <= b.  A monomial in the class of b - d has value
        sigma(b) - sigma(d): up to the bound it exists iff that class was
        scanned, and past it the scan cannot tell, so ValueError is raised."""
        if not (
            _same_lattice(d.lattice, self.lattice)
            and _same_lattice(b.lattice, self.lattice)
        ):
            raise ValueError("classes live over different lattices")
        diff = tuple(map(sub, b.representative, d.representative))
        if sum(map(mul, self.functional, diff)) > self.bound:
            raise ValueError("sigma(b) - sigma(d) exceeds the scan bound")
        return diff in self.scanned

    def get(self, i, b):
        """beta_{i,b}; ValueError past the bound or over another lattice."""
        if not _same_lattice(b.lattice, self.lattice):
            raise ValueError("classes live over different lattices")
        if sum(map(mul, self.functional, b.representative)) > self.bound:
            raise ValueError("sigma(b) exceeds the scan bound")
        return self.entries.get((i, b), 0)

    def homological_degrees(self):
        return sorted({i for i, _ in self.entries})

    def degrees(self, i):
        """Degree classes with beta_{i,.} > 0, in the atlas's (functional
        value, canonical key) order, in which betti_table entered them."""
        return [b for (j, b) in self.entries if j == i]

    def total(self, i):
        return sum(v for (j, _), v in self.entries.items() if j == i)

    def __repr__(self):
        tot = {i: self.total(i) for i in self.homological_degrees()}
        return "BettiTable(bound=%r, totals=%r)" % (self.bound, tot)


def betti_scan(L, bound, field="q", functional=None):
    """Betti numbers of every congruence class within the scan bound.

    Records the nonzero beta_{i,b}, i >= 1, from the facets the Atlas
    carries (no other class has homology); every class goes in T.scanned.
    """
    return betti_table(scan_degree_classes(L, bound, functional), field)


def betti_table(atlas, field="q", bound=None):
    """The BettiTable of an Atlas up to bound (by default the scan's),
    read from the facets of the classes it carries (no other class has
    homology).  The bound must be an int (no bool) from 0 to atlas.bound,
    else ValueError; only the carried classes of value <= bound are
    ranked, a prefix of atlas.degrees, and entered in its order.  The
    field is checked once, up front, so a table that carries no fiber
    still rejects a bad one."""
    check_field(field)
    if bound is None:
        bound = atlas.bound
    elif type(bound) is not int or not 0 <= bound <= atlas.bound:
        raise ValueError(
            "table bound must be an int from 0 to the scan bound %r, not %r"
            % (atlas.bound, bound)
        )
    degrees = atlas.degrees[: bisect_right(atlas.values, bound)]
    entries = {}
    for b, facets in zip(degrees, atlas.facets):
        for j, dim in _facet_homology(facets, field).items():
            if j >= 0 and dim:
                entries[(j + 1, b)] = dim
    return BettiTable(atlas, entries, bound)


def minimal_betti_degrees(T, i):
    """Degrees minimal in the divisibility order among {b : beta_{i,b} > 0}.
    d <= b with d != b makes b - d a nonzero monomial, of positive value,
    so b is tested only against the degrees before it in T.degrees(i), in
    (value, key) order.  One of b's own value has a difference of value 0
    that is not the zero class, so T.leq says False."""
    degs = T.degrees(i)
    return [b for k, b in enumerate(degs) if not any(T.leq(d, b) for d in degs[:k])]
