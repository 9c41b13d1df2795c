"""Simplicial complexes attached to fibers, and Betti number scans.

Two complexes are built from a fiber: the gcd complex (vertices = fiber
monomials, faces = subsets with a nontrivial common divisor) and the
support complex (vertices = variables, faces = subsets of monomial
supports).  The gcd complex is covered by the full simplices
V_i = {m : x_i divides m}, and the support complex is the nerve of that
cover, so the two have the same reduced homology (property suite (a)
checks this on every fixture degree).  Homology is computed on the nerve
of a complex's facets whenever that has fewer vertices, so a gcd complex
costs at most 2^n faces however large its fiber.  The connected
components of a gcd complex need no complex at all: gcd_components
merges the variables of each monomial's support.

When the monomials of a fiber share a variable x_k, V_k is the whole
fiber: the gcd complex is a cone, and so is the support complex (Miller-
Sturmfels' squarefree divisor complex), so beta_{i,b} = 0 for every i.  A
degree scan's Atlas carries fibers only for the other classes.

Multigraded Betti numbers follow the convention

    beta_{i,b} = dim H~_{i-1}(gcd complex of the fiber of b),   i >= 1.
"""

from .fibers import Fiber, fiber_of, support_mask
from .lattice_core import class_of, positive_functional
from .linalg import is_prime, rank_mod_p, rank_rational


def _maximal_sets(sets):
    """Distinct sets none of which is contained in another."""
    uniq = sorted(set(sets), key=lambda s: (-len(s), sorted(s)))
    out = []
    for s in uniq:
        if not any(s < t for t in out):
            out.append(s)
    return out


class SimplicialComplex:
    """An abstract simplicial complex given by vertex labels and facets.

    Facets are sets of indices into vertex_labels.  The faces are exactly
    the downward closure of the facets; a label occurring in no facet
    carries no 0-face (the complex on an empty facet list is {empty set}).
    """

    def __init__(self, vertex_labels, facets):
        self.vertex_labels = tuple(vertex_labels)
        fs = [frozenset(f) for f in facets if f]
        for f in fs:
            for v in f:
                if not 0 <= v < len(self.vertex_labels):
                    raise ValueError("facet vertex %r out of range" % (v,))
        fs = _maximal_sets(fs)
        self.facets = tuple(sorted(fs, key=lambda s: sorted(s)))

    def vertices(self):
        """Indices of the vertices that are actual 0-faces."""
        seen = set()
        for f in self.facets:
            seen |= f
        return sorted(seen)

    def faces(self):
        """Downward closure, as {dim: sorted list of index tuples}.

        Materializes every face on each call; reduced_homology_dims calls
        it once, on the facet nerve when that is smaller.
        """
        allf = set()
        for f in self.facets:
            _close(tuple(sorted(f)), allf)
        byd = {}
        for f in allf:
            byd.setdefault(len(f) - 1, []).append(f)
        return {d: sorted(v) for d, v in sorted(byd.items())}

    def f_vector(self):
        fs = self.faces()
        return tuple(len(fs.get(d, ())) for d in range(0, max(fs, default=-1) + 1))

    def __repr__(self):
        return "SimplicialComplex(%d vertices, %d facets)" % (
            len(self.vertex_labels),
            len(self.facets),
        )


def _close(face, acc):
    if face in acc:
        return
    stack = [face]
    while stack:
        f = stack.pop()
        if f in acc:
            continue
        acc.add(f)
        if len(f) > 1:
            for t in range(len(f)):
                g = f[:t] + f[t + 1 :]
                if g not in acc:
                    stack.append(g)


def connected_components(K):
    """Partition of the 0-faces by 1-skeleton connectivity.

    Returns a tuple of components, each a tuple of vertex labels in index
    order; components are ordered by their smallest vertex index.
    """
    verts = K.vertices()
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in K.facets:
        it = iter(sorted(f))
        try:
            a = find(next(it))
        except StopIteration:
            continue
        for v in it:
            b = find(v)
            if b != a:
                parent[b] = a
    groups = {}
    for v in verts:
        groups.setdefault(find(v), []).append(v)
    comps = sorted(groups.values(), key=lambda g: g[0])
    return tuple(tuple(K.vertex_labels[v] for v in sorted(g)) for g in comps)


def _boundary_rank(lower, upper, field):
    """Rank of the boundary map from span(upper) to span(lower)."""
    if not upper or not lower:
        return 0
    index = {f: i for i, f in enumerate(lower)}
    rows = []
    for f in upper:
        row = [0] * len(lower)
        for t in range(len(f)):
            g = f[:t] + f[t + 1 :]
            row[index[g]] = 1 if t % 2 == 0 else -1
        rows.append(row)
    if field in ("q", "Q"):
        return rank_rational(rows)
    return rank_mod_p(rows, field)


def reduced_homology_dims(K, field="q"):
    """Reduced homology dimensions {j: dim} for j = -1 up to the dimension
    of the complex whose faces are built (K, or the nerve below).

    Uses the augmented chain complex, so the empty complex {emptyset}
    reports {-1: 1} and any nonempty complex reports {-1: 0, ...}.
    field is "q" for the rationals or an int prime p for GF(p).

    When K has fewer facets than vertices the faces are those of the nerve
    of its facets instead: one vertex per facet, and for each vertex v of
    K the face {facets containing v}.  Nonempty intersections of facets
    are simplices, so the nerve has the same reduced homology (nerve
    lemma).
    """
    if field not in ("q", "Q") and not (type(field) is int and is_prime(field)):
        raise ValueError("field must be 'q' or a prime integer")
    verts = K.vertices()
    if len(K.facets) < len(verts):
        K = SimplicialComplex(
            K.facets,
            [[i for i, f in enumerate(K.facets) if v in f] for v in verts],
        )
    fs = K.faces()
    if not fs:
        return {-1: 1}
    maxd = max(fs)
    counts = {d: len(fs[d]) for d in fs}
    ranks = {0: 1}  # augmentation C_0 -> C_{-1}
    for d in range(1, maxd + 1):
        ranks[d] = _boundary_rank(fs[d - 1], fs[d], field)
    dims = {-1: 1 - ranks[0]}
    for d in range(0, maxd + 1):
        dims[d] = counts.get(d, 0) - ranks.get(d, 0) - ranks.get(d + 1, 0)
    return dims


def gcd_complex(F):
    """The complex on the fiber's monomials whose faces are the subsets
    with gcd != 1.  Facets are the maximal sets V_i = {m : m_i > 0}."""
    ms = F.members
    if not ms:
        return SimplicialComplex((), ())
    n = len(ms[0])
    vs = []
    for i in range(n):
        vi = frozenset(k for k, m in enumerate(ms) if m[i] > 0)
        if vi:
            vs.append(vi)
    return SimplicialComplex(ms, vs)


def gcd_components(F):
    """connected_components(gcd_complex(F)), without building the complex.

    Two monomials are joined when their supports meet, so the components
    follow from a union-find over the variables that merges the variables
    of each monomial's support.  The monomial 1 lies in no component.
    """
    ms = F.members
    n = len(ms[0]) if ms else 0
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    masks = [support_mask(m) for m in ms]
    for mask in set(masks):
        vs = [i for i in range(n) if mask >> i & 1]
        for v in vs[1:]:
            parent[find(v)] = find(vs[0])
    groups = {}
    for m, mask in zip(ms, masks):
        if mask:
            groups.setdefault(find(mask.bit_length() - 1), []).append(m)
    return tuple(tuple(g) for g in groups.values())


def support_complex(F):
    """The complex on the variable indices whose faces are the subsets of
    the monomial supports supp(m), m in the fiber."""
    ms = F.members
    if not ms:
        return SimplicialComplex((), ())
    n = len(ms[0])
    sups = [frozenset(i for i in range(n) if m[i] > 0) for m in ms]
    return SimplicialComplex(tuple(range(n)), [s for s in sups if s])


def betti_at(L, i, b, field="q"):
    """beta_{i,b} = dim H~_{i-1} of the gcd complex of the fiber of b."""
    if i < 1:
        raise ValueError("betti_at is defined for homological degree i >= 1")
    fib = fiber_of(L, b)
    if len(fib) <= 1:
        return 0
    dims = reduced_homology_dims(gcd_complex(fib), field)
    return dims.get(i - 1, 0)


class Atlas:
    """A degree scan.  classes lists (DegreeClass, value) in (value, key)
    order; cones[k], the AND of the support masks of the fiber of
    classes[k], is nonzero iff that gcd complex is a cone (no homology, no
    basic component, connected).  fibers lists (DegreeClass, value, Fiber)
    for the classes of cone mask 0 only; len() counts every class."""

    def __init__(self, lattice, bound, functional, classes, cones, fibers):
        self.lattice = lattice
        self.bound = bound
        self.functional = functional
        self.classes = classes
        self.cones = cones
        self.fibers = fibers

    def __len__(self):
        return len(self.classes)


def scan_degree_classes(L, bound, functional=None):
    """The Atlas of all degree classes with a nonnegative representative
    of functional value <= bound.

    The bound must be nonnegative (the zero class has value 0).  The
    functional must be strictly positive and orthogonal to L, so that it
    is constant on fibers; by default one is computed from the lattice.
    A monomial u != 0 in the fiber of b is u' + e_j for some u' in the
    fiber of b - e_j, a class the scan reached one step earlier, so
    fiber(b) = union over scanned b - e_j of (fiber(b - e_j) + e_j), built
    from fiber(0) = {0} up without Fourier-Motzkin, and only where a fiber
    of cone mask 0 needs it.  The masks need no members: cone(0) = 0 and
    cone(b) = AND over the steps of (cone(b - e_j) | 1 << j).
    """
    if bound < 0:
        raise ValueError("scan bound must be nonnegative, not %r" % (bound,))
    w = tuple(functional) if functional is not None else positive_functional(L)
    if len(w) != L.n or any(x < 1 for x in w):
        raise ValueError("functional must be strictly positive of length n")
    if any(sum(x * y for x, y in zip(w, row)) for row in L.rows):
        raise ValueError("functional must vanish on the lattice")
    zero = (0,) * L.n
    start = class_of(L, zero)
    seen = {start.key: (start, 0)}
    # key -> flat [key of b - e_j, j, ...] over the steps into the class
    steps = {start.key: []}
    queue = [(zero, start.key, 0)]
    while queue:
        rep, key, s = queue.pop()
        for j in range(L.n):
            s2 = s + w[j]
            if s2 > bound:
                continue
            rep2 = rep[:j] + (rep[j] + 1,) + rep[j + 1 :]
            b2 = class_of(L, rep2)
            key2 = b2.key
            if key2 not in seen:
                seen[key2] = (b2, s2)
                steps[key2] = []
                queue.append((rep2, key2, s2))
            steps[key2] += (key, j)
    classes = sorted(seen.values(), key=lambda t: (t[1], t[0].key))
    cone = {}
    for b, _s in classes:
        into = steps[b.key]
        mask = -1 if into else 0
        for k in range(0, len(into), 2):
            mask &= cone[into[k]] | 1 << into[k + 1]
        cone[b.key] = mask
    # a step raises the value, so one reverse pass marks every predecessor
    needed = set()
    for b, _s in reversed(classes):
        if b.key in needed or not cone[b.key]:
            needed.update(steps[b.key][::2])
    members = {}
    fibers = []
    for b, s in classes:
        if b.key not in needed and cone[b.key]:
            continue
        into = steps[b.key]
        ms = members[b.key] = {zero} if not into else set()
        for k in range(0, len(into), 2):
            j = into[k + 1]
            for m in members[into[k]]:
                ms.add(m[:j] + (m[j] + 1,) + m[j + 1 :])
        if not cone[b.key]:
            fibers.append((b, s, Fiber(b, ms)))
    cones = [cone[b.key] for b, _s in classes]
    return Atlas(L, bound, w, classes, cones, fibers)


class BettiTable:
    """Nonzero multigraded Betti numbers found by a bounded scan, and the
    keys of every class that scan visited."""

    def __init__(self, lattice, entries, bound, field, functional, scanned):
        self.lattice = lattice
        self.entries = dict(entries)  # (i, DegreeClass) -> positive int
        self.bound = bound
        self.field = field
        self.functional = functional
        self.scanned = frozenset(scanned)

    def leq(self, d, b):
        """Divisibility d <= b for scanned classes.  A monomial in the class
        of b - d has functional value sigma(b) - sigma(d) <= bound, so it
        exists iff that class was scanned."""
        diff = tuple(x - y for x, y in zip(b.representative, d.representative))
        return self.lattice.canonical_key(diff) in self.scanned

    def get(self, i, b):
        return self.entries.get((i, b), 0)

    def homological_degrees(self):
        return sorted({i for i, _ in self.entries})

    def degrees(self, i):
        """Degree classes with beta_{i,.} > 0, sorted by functional value."""
        w = self.functional
        ds = [b for (j, b) in self.entries if j == i]
        return sorted(
            ds, key=lambda b: (sum(x * y for x, y in zip(w, b.representative)), b.key)
        )

    def total(self, i):
        return sum(v for (j, _), v in self.entries.items() if j == i)

    def __repr__(self):
        tot = {i: self.total(i) for i in self.homological_degrees()}
        return "BettiTable(bound=%r, totals=%r)" % (self.bound, tot)


def betti_scan(L, bound, field="q", functional=None):
    """Betti numbers of every congruence class within the scan bound.

    Records the nonzero beta_{i,b}, i >= 1, from the fibers of the classes
    whose gcd complex is not a cone; every class goes in T.scanned.
    """
    return _betti_table(scan_degree_classes(L, bound, functional), field)


def _betti_table(atlas, field="q"):
    """betti_scan over the fibers an Atlas carries."""
    entries = {}
    for b, _s, fib in atlas.fibers:
        dims = reduced_homology_dims(gcd_complex(fib), field)
        for j, dim in dims.items():
            if j >= 0 and dim:
                entries[(j + 1, b)] = dim
    scanned = (b.key for b, _s in atlas.classes)
    return BettiTable(
        atlas.lattice, entries, atlas.bound, field, atlas.functional, scanned
    )


def minimal_betti_degrees(T, i):
    """Degrees minimal in the divisibility order among {b : beta_{i,b} > 0}."""
    degs = T.degrees(i)
    return [b for b in degs if not any(d != b and T.leq(d, b) for d in degs)]
