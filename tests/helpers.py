"""Shared property-suite routines and test-only oracles.

Each check_* function raises AssertionError with a pointed message on the
first violation and returns a short human-readable summary on success.
They are exercised twice: individually by test_properties.py, and as a
block by the acceptance gate.
"""

import importlib.util
import itertools
import json
import pathlib
import random
import sys

from latticescarf.fibers import (
    Fiber,
    class_leq,
    enumerate_fiber,
    gcd_of,
    monomial_str,
    reduce_by_gcd,
    support_mask,
)
from latticescarf.homology import (
    Atlas,
    betti_scan,
    betti_table,
    gcd_components,
    reduced_homology_dims,
    scan_degree_classes,
)
from latticescarf.lattice_core import (
    DegreeClass,
    LatticeBasis,
    positive_functional,
)
from latticescarf.linalg import integer_solutions, is_prime
from latticescarf.scarf import (
    LatticeSubset,
    _in_generalized_scarf,
    algebraic_scarf_subcomplex,
    basic_components,
    binomials,
    build_generalized_scarf_complex,
    enumerate_scarf_poset,
    indispensable_binomials,
    minimal_generators,
    monomials_of,
    strongly_algebraic_subcomplex,
    verify_zero_composition,
)


# ---------------------------------------------------------------------------
# Face-tuple oracle: simplicial complexes with explicit faces, the gcd and
# support complexes of a fiber, and their homology.  The package computes
# homology from support bitmasks instead (homology.reduced_homology_dims).


def _maximal_sets(sets):
    """Distinct sets none of which is contained in another."""
    uniq = sorted(set(sets), key=lambda s: (-len(s), sorted(s)))
    out = []
    for s in uniq:
        if not any(s < t for t in out):
            out.append(s)
    return out


def maximal_masks_oracle(masks):
    """The set of nonzero int masks in masks that no other mask in masks
    strictly contains, by comparing every pair of them."""
    return {
        s
        for s in masks
        if s and not any(s | t == t != s for t in masks)
    }


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

        Materializes every face on each call; complex_homology_dims calls
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


# The oracle's own dense ranks, which share no code with the package's
# (linalg.rank_gf2 and linalg.rank_exact).


def rank_rational(rows):
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(nc):
        piv = None
        best = None
        for i in range(rank, nr):
            v = abs(m[i][col])
            if v and (best is None or v < best):
                piv, best = i, v
                if v == 1:
                    break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for i in range(rank + 1, nr):
            mi = m[i]
            mic = mi[col]
            row = m[rank]
            for j in range(col + 1, nc):
                mi[j] = (mi[j] * p - mic * row[j]) // prev
            mi[col] = 0
        prev = p
        rank += 1
        if rank == nr:
            break
    return rank


def rank_mod_p(rows, p):
    """Rank of an integer matrix over GF(p), by forward elimination: each
    pivot clears its column in the rows below it only."""
    m = [[x % p for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    for col in range(nc):
        piv = None
        for i in range(rank, nr):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        row = m[rank]
        inv = pow(row[col], -1, p)
        for i in range(rank + 1, nr):
            f = m[i][col]
            if f:
                f = f * inv % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], row)]
        rank += 1
        if rank == nr:
            break
    return rank


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
    if field == "q":
        return rank_rational(rows)
    return rank_mod_p(rows, field)


def complex_homology_dims(K, field="q"):
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
    if field != "q" and not (type(field) is int and is_prime(field)):
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


def support_complex(F):
    """The complex on the variable indices whose faces are the subsets of
    the monomial supports supp(m), m in the fiber."""
    ms = F.members
    if not ms:
        return SimplicialComplex((), ())
    n = len(ms[0])
    sups = [frozenset(i for i in range(n) if m[i] > 0) for m in ms]
    return SimplicialComplex(tuple(range(n)), [s for s in sups if s])


def random_pointed_lattice(rng, r, n, lo=-3, hi=3):
    """Rejection-sample an independent r x n basis of a pointed lattice."""
    while True:
        rows = [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(r)]
        try:
            return LatticeBasis(rows)
        except ValueError:
            continue


def suite_b_lattices(rng, count=50):
    """Suite (b)'s random lattices, (k, L) for k < count: half 2 x 4, then
    2 x 5."""
    shapes = [(2, 4)] * (count // 2) + [(2, 5)] * (count - count // 2)
    for k, (r, n) in enumerate(shapes):
        yield k, random_pointed_lattice(rng, r, n)


def table_bound_problems(suite, count=10):
    """scan_problems on the fixtures and suite (b)'s first count random
    lattices (random.Random(101), as the property suites draw them)."""
    lattices = itertools.islice(suite_b_lattices(random.Random(101)), count)
    return scan_problems(suite, lattices)


def has_full_support_generators(atlas):
    """Does every minimal generator x^u - x^v of the atlas have full
    support, u + v > 0 in every coordinate?"""
    generators = binomials(atlas)[0]
    return all(all(x or y for x, y in zip(u, v)) for _b, (u, v) in generators)


def generic_lattices(rng, count, n):
    """The atlases of count 2 x n lattices, entries in +-{1, 2, 3}, whose
    minimal generators within 2 * small_scan_bound(L), the atlas's bound,
    all have full support, so that the lattice ideal is generic
    (Peeva-Sturmfels).  Rejection-sampled; the generators are checked at
    a quarter, a half and once the bound first, where most samples fail
    cheaply, and a sample of more than 400 classes at half the bound is
    dropped to keep the scans small."""
    out = []
    while len(out) < count:
        entries = (-3, -2, -1, 1, 2, 3)
        rows = [tuple(rng.choice(entries) for _ in range(n)) for _ in range(2)]
        try:
            L = LatticeBasis(rows)
        except ValueError:
            continue
        b = small_scan_bound(L)
        for k, bound in enumerate((b // 4, b // 2, b, 2 * b)):
            atlas = scan_degree_classes(L, bound)
            if (k == 1 and len(atlas) > 400) or not has_full_support_generators(atlas):
                break
        else:
            out.append(atlas)
    return out


def integer_points(rows, nvars):
    """All integer solutions of a . z + c >= 0, in increasing
    lexicographic order: the points of linalg.integer_solutions."""
    return [z for z, _s in integer_solutions(rows, nvars)]


def enumerate_fiber_box_oracle(L, u0, box_bound):
    """Brute-force oracle: scan the integer box [0, box_bound]^n for
    vectors congruent to u0.  Exponential; for cross-checks only."""
    u0 = tuple(u0)
    key = L.canonical_key(u0)
    members = [
        u
        for u in itertools.product(range(box_bound + 1), repeat=L.n)
        if L.canonical_key(u) == key
    ]
    return Fiber(DegreeClass(L, u0), members)


def full_fibers(L, bound, w):
    """Every nonempty fiber of functional value <= bound, as (DegreeClass,
    value, Fiber) in (value, class key) order: the monomials u with
    w . u <= bound, grouped by class.  Shares no code with the degree
    scan; for cross-checks only."""
    groups = {}

    def extend(prefix, budget):
        if len(prefix) == L.n:
            groups.setdefault(L.canonical_key(prefix), []).append(prefix)
            return
        wj = w[len(prefix)]
        for x in range(budget // wj + 1):
            extend(prefix + (x,), budget - x * wj)

    extend((), bound)
    out = []
    for ms in groups.values():
        b = DegreeClass(L, ms[0])
        out.append((b, sum(x * y for x, y in zip(w, ms[0])), Fiber(b, ms)))
    return sorted(out, key=lambda t: (t[1], t[0].key))


def reference_scan(L, bound, functional=None):
    """A degree scan that shares no stepping code with the package's,
    kept as a test-only oracle for homology.scan_degree_classes:
    Hermite-tuple keys reduced afresh at every step, tuple-keyed dicts, a
    representative for every class, members as sets.  Its scanned is the
    frozenset of the canonical keys of the classes it reached.

    The Atlas of all degree classes with a nonnegative representative
    of functional value <= bound.

    The bound must be nonnegative (the zero class has value 0).  The
    functional must be strictly positive and orthogonal to L, so that it
    is constant on fibers; by default one is computed from the lattice.
    The search steps b -> b + e_j from the zero class and reaches each
    class first at a nonnegative representative; the key of b + e_j is
    LatticeBasis.canonical_key of the key of b plus e_j.
    A monomial u != 0 in the fiber of b is u' + e_j for some u' in the
    fiber of b - e_j, a class the scan reached one step earlier, so
    fiber(b) = union over scanned b - e_j of (fiber(b - e_j) + e_j), built
    from fiber(0) = {0} up without Fourier-Motzkin, and only where a fiber
    of cone mask 0 needs it.  The masks need no members: cone(0) = 0 and
    cone(b) = AND over the steps of (cone(b - e_j) | 1 << j).  A class of
    cone mask 0 is carried when its maximal supports (_maximal_sets of
    the members' supports, as sets of variables) share no variable; its
    facets are those sets as bitmasks, largest first, and its value is
    the one the search reached it at.  Only the carried classes become
    DegreeClass objects.
    """
    if bound < 0:
        raise ValueError("scan bound must be nonnegative, not %r" % (bound,))
    w = tuple(functional) if functional is not None else positive_functional(L)
    if len(w) != L.n or any(x < 1 for x in w):
        raise ValueError("functional must be strictly positive of length n")
    if any(sum(x * y for x, y in zip(w, row)) for row in L.rows):
        raise ValueError("functional must vanish on the lattice")
    zero = (0,) * L.n
    start = L.canonical_key(zero)
    seen = {start: (zero, 0)}  # key -> (representative, value)
    # key -> flat [key of b - e_j, j, ...] over the steps into the class
    steps = {start: []}
    stack = [(start, zero, 0)]
    while stack:
        key, rep, s = stack.pop()
        for j in range(L.n):
            s2 = s + w[j]
            if s2 > bound:
                continue
            key2 = L.canonical_key(key[:j] + (key[j] + 1,) + key[j + 1 :])
            if key2 not in seen:
                rep2 = rep[:j] + (rep[j] + 1,) + rep[j + 1 :]
                seen[key2] = (rep2, s2)
                steps[key2] = []
                stack.append((key2, rep2, s2))
            steps[key2] += (key, j)
    keys = sorted(seen, key=lambda k: (seen[k][1], k))
    cone = {}
    for key in keys:
        into = steps[key]
        mask = -1 if into else 0
        for k in range(0, len(into), 2):
            mask &= cone[into[k]] | 1 << into[k + 1]
        cone[key] = mask
    # a step raises the value, so one reverse pass marks every predecessor
    needed = set()
    for key in reversed(keys):
        if key in needed or not cone[key]:
            needed.update(steps[key][::2])
    members = {}
    values, fibers, facets = [], [], []
    for key in keys:
        if key not in needed and cone[key]:
            continue
        into = steps[key]
        ms = members[key] = {zero} if not into else set()
        for k in range(0, len(into), 2):
            j = into[k + 1]
            for m in members[into[k]]:
                ms.add(m[:j] + (m[j] + 1,) + m[j + 1 :])
        if cone[key] or maximal_supports_meet(ms):
            continue
        values.append(seen[key][1])
        fibers.append(Fiber(DegreeClass(L, seen[key][0]), ms))
        facets.append(tuple(sum(1 << i for i in s) for s in maximal_supports(ms)))
    degrees = tuple(fib.degree for fib in fibers)
    fibers = tuple(fibers)
    values, facets = tuple(values), tuple(facets)
    return Atlas(L, bound, w, frozenset(seen), values, degrees, facets, lambda: fibers)


def same_classes(scanned, keys):
    """Does the scan's scanned hold exactly the classes of the distinct
    canonical keys keys?  Equal counts, and every key a member."""
    return len(scanned) == len(keys) and all(key in scanned for key in keys)


def scan_problems(suite, lattices):
    """(where, L, bound, functional): the fixtures at their bounds, then
    the random lattices, (k, L) pairs, at small_scan_bound."""
    out = [
        (data.name, data.lattice, data.bound, data.functional)
        for data in suite.values()
    ]
    for k, L in lattices:
        out.append(
            ("random lattice #%d" % k, L, small_scan_bound(L), positive_functional(L))
        )
    return out


def euler_characteristic_checks(K, field="q"):
    """Reduced Euler characteristic from the faces of K, and the
    alternating sum of its reduced homology dimensions; they must agree."""
    fs = K.faces()
    chi_f = -1 + sum(
        (-1) ** d * len(faces) for d, faces in fs.items() if d >= 0
    )
    dims = complex_homology_dims(K, field)
    chi_h = sum((-1) ** j * v for j, v in dims.items())
    return chi_f, chi_h


def small_scan_bound(L):
    """A bound that certifies at least every basis row's own fiber."""
    w = positive_functional(L)
    tops = [sum(wi * x for wi, x in zip(w, row) if x > 0) for row in L.rows]
    return max(tops, default=0) + 2 * max(w)


def catalog_fibers(data, max_size=6):
    """Small named fibers of one fixture: every 1-Betti degree, every poset
    element degree, capped at max_size monomials (for subset brute force)."""
    L = data.lattice
    reps = []
    seen = set()
    for b in data.table.degrees(1):
        reps.append(b.representative)
    for c in data.poset.elements:
        reps.append(c.degree.representative)
    out = []
    for rep in reps:
        fib = enumerate_fiber(L, rep)
        if not 1 <= len(fib) <= max_size:
            continue
        if fib.members in seen:
            continue
        seen.add(fib.members)
        out.append(fib)
    return out


def check_gcd_components(suite, rng, random_count=10):
    """gcd_components equals the components of the gcd complex itself on
    every fiber of the fixtures at their bounds and of random_count lattices
    drawn as suite (b) draws them (half 2 x 4, then 2 x 5)."""
    checked = 0
    lattices = suite_b_lattices(rng, random_count)
    for where, L, bound, w in scan_problems(suite, lattices):
        for b, _s, fib in full_fibers(L, bound, w):
            assert gcd_components(fib) == connected_components(gcd_complex(fib)), (
                "gcd_components differs on %s at %r" % (where, b.representative)
            )
            checked += 1
    return "%d fibers" % checked


def maximal_supports(ms):
    """The maximal nonempty supports of the monomials ms, as sets of
    variables, largest first (_maximal_sets)."""
    tops = _maximal_sets(frozenset(i for i, x in enumerate(m) if x) for m in ms)
    return [s for s in tops if s]


def maximal_supports_meet(ms):
    """Do the maximal supports of the monomials ms share a variable?
    False when no monomial has a nonempty support."""
    tops = maximal_supports(ms)
    return bool(tops) and bool(frozenset.intersection(*tops))


def translation_order_oracle(elements):
    """The strict translation order of basic components, built eagerly:
    the pairs (i, j), i != j, with |C_i| <= |C_j| and some r >= 0 that
    moves every monomial of C_i into C_j.  Such an r takes the first
    monomial of C_i to some monomial of C_j, so those are the r tried."""
    pairs = set()
    for i, ci in enumerate(elements):
        for j, cj in enumerate(elements):
            if i == j or ci.cardinality > cj.cardinality:
                continue
            small, big = ci.monomials, set(cj.monomials)
            for m in big:
                r = [a - b for a, b in zip(m, small[0])]
                if min(r) >= 0 and all(
                    tuple(x + y for x, y in zip(r, u)) in big for u in small
                ):
                    pairs.add((i, j))
                    break
    return pairs


def _has_common_divisor(ms):
    """Do the monomials ms share a variable?  True for no monomials."""
    return not ms or any(min(col) > 0 for col in zip(*ms))


def basic_components_oracle(L, fib):
    """(monomials, witness members, whole) for each basic component of the
    Fiber fib, in basic_components' order: the parts are the components of
    the gcd complex itself (the whole fiber when it has at most two
    members), tested by componentwise minima, with no support mask."""
    ms = fib.members
    parts = connected_components(gcd_complex(fib)) if len(ms) > 2 else [ms]
    out = []
    for G in parts:
        if not G or _has_common_divisor(G):
            continue
        if all(_has_common_divisor(G[:k] + G[k + 1 :]) for k in range(len(G))):
            witness = {tuple(a - b for a, b in zip(G[0], u)) for u in G}
            witness = tuple(sorted(witness, reverse=True))
            out.append((tuple(G), witness, len(G) == len(ms)))
    return out


def binomials_oracle(atlas):
    """(generators, indispensables) as scarf.binomials gives them, from the
    components of each carried fiber's gcd complex, with minimality among
    the 1-Betti degrees decided by fibers.class_leq."""
    generators, betti_1 = [], {}
    for fib in atlas.fibers:
        comps = connected_components(gcd_complex(fib))
        if len(comps) < 2:
            continue
        b = fib.degree
        betti_1[b] = fib
        base = comps[0][0]
        for comp in comps[1:]:
            generators.append((b, tuple(sorted((comp[0], base), reverse=True))))
    indispensables = [
        (b, fib.members)
        for b, fib in betti_1.items()
        if len(fib) == 2 and not any(d != b and class_leq(d, b) for d in betti_1)
    ]
    return generators, indispensables


def move_components(fib, moves):
    """The number of connected components of the Fiber fib under the
    moves, pairs (m1, m2) of monomials: u and u - m1 + m2 are joined
    whenever m1 divides u, and likewise with m1 and m2 swapped.  Shares no
    code with the degree scan or the support masks."""
    members = fib.members
    parent = list(range(len(members)))
    index = {u: k for k, u in enumerate(members)}

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for k, u in enumerate(members):
        for move in moves:
            for a, b in (move, move[::-1]):
                if all(x >= y for x, y in zip(u, a)):
                    v = tuple(x - y + z for x, y, z in zip(u, a, b))
                    parent[find(k)] = find(index[v])
    return sum(parent[k] == k for k in range(len(members)))


def strongly_oracle(X, T, mode):
    """The bases of strongly_algebraic_subcomplex(X, T, mode), read from
    the definition with divisibility decided by fibers.class_leq and the
    Betti numbers read from T.entries.  E_C in degree i >= 1, b = b(C),
    is kept when beta_{i,b} = 1 and, in strict mode, no j-Betti degree
    d != b with beta_{j,b} > 0 divides b; in paper-example mode, no
    i-Betti degree d != b with beta_{i,d} != 1 divides b.  Degree 0 is
    kept whole, and empty top degrees are dropped."""
    leq = {}

    def below(d, b):
        if (d, b) not in leq:
            leq[d, b] = d != b and class_leq(d, b)
        return leq[d, b]

    def keeps(i, b):
        if T.entries.get((i, b)) != 1:
            return False
        if mode == "strict":
            return not any(T.entries.get((j, b)) and below(d, b) for j, d in T.entries)
        return not any(
            j == i and v != 1 and below(d, b) for (j, d), v in T.entries.items()
        )

    bases = [tuple(X.basis[0])] if X.basis else []
    for i in range(1, len(X.basis)):
        bases.append(tuple(c for c in X.basis[i] if keeps(i, c.degree)))
    while bases and not bases[-1]:
        bases.pop()
    return bases


def restriction_oracle(X, bases):
    """The differentials of the subcomplex of X on bases, sub-bases of
    X.basis in its order: X's own entries, each moved to the positions
    its row and column cells hold in bases.  ValueError when an entry
    leaves a kept column for a dropped row."""
    remap = [{c: t for t, c in enumerate(bs)} for bs in bases]
    diffs = [{} for _ in bases]
    for i in range(1, len(bases)):
        for (r, c), terms in X.differentials[i].items():
            col = remap[i].get(X.basis[i][c])
            if col is None:
                continue
            row = remap[i - 1].get(X.basis[i - 1][r])
            if row is None:
                raise ValueError("restriction is not closed under the differential")
            diffs[i][(row, col)] = terms
    return tuple(diffs)


def export_dot_gcd_oracle(fiber, variables):
    """export_dot(fiber, variables, "gcd") for plain variable names, with
    an edge wherever the pairwise gcd is not 1."""
    ms = fiber.members
    lines = ["graph fiber {"]
    for k, m in enumerate(ms):
        lines.append('  n%d [label="%s"];' % (k, monomial_str(m, variables)))
    for a in range(len(ms)):
        for b in range(a + 1, len(ms)):
            if any(gcd_of([ms[a], ms[b]])):
                lines.append("  n%d -- n%d;" % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"


def complexes_equal(X, Y):
    if X.ranks() != Y.ranks():
        return False
    for bs1, bs2 in zip(X.basis, Y.basis):
        for c1, c2 in zip(bs1, bs2):
            if c1.degree != c2.degree or c1.monomials != c2.monomials:
                return False
    return X.differentials == Y.differentials


# ---------------------------------------------------------------------------
# (a) the gcd complex, the support complex and the package's support masks
# have the same homology; beta_1 from the masks is the number of gcd
# components less one; and the degree scan's atlas agrees with full fibers
# built independently: the same class keys, and a fiber carried, in the
# same order and at the same value, exactly where its maximal supports
# share no variable, equal to the Fourier-Motzkin one.


def check_gcd_support_homology(suite, rng, random_count=10):
    checked = carried = 0
    lattices = itertools.islice(suite_b_lattices(rng), random_count)
    for where, L, bound, w in scan_problems(suite, lattices):
        atlas = scan_degree_classes(L, bound, w)
        full = full_fibers(L, bound, w)
        assert same_classes(atlas.scanned, [b.key for b, _s, _fib in full]), (
            "scanned classes differ from the full fibers on %s" % where
        )
        assert len(atlas) == len(full), "class count differs on %s" % where
        carry = [(b.key, s, fib) for b, s, fib in full if not maximal_supports_meet(fib)]
        assert [fib.degree.key for fib in atlas.fibers] == [
            key for key, _s, _fib in carry
        ], "carried classes are not those whose maximal supports share nothing on %s" % where
        for got, (_key, s, fib) in zip(atlas.fibers, carry):
            b = got.degree
            rep = b.representative
            assert L.canonical_key(rep) == b.key, (
                "representative %r is not in class %r on %s" % (rep, b.key, where)
            )
            assert min(rep) >= 0 and sum(x * y for x, y in zip(w, rep)) == s, (
                "representative %r is negative or not of value %r on %s"
                % (rep, s, where)
            )
            assert got == fib == enumerate_fiber(L, rep), (
                "carried fiber differs on %s at %r" % (where, rep)
            )
            carried += 1
        for b, _s, fib in full:
            dims = [
                complex_homology_dims(gcd_complex(fib)),
                complex_homology_dims(support_complex(fib)),
                reduced_homology_dims({support_mask(m) for m in fib}),
            ]
            nonzero = [{j: d for j, d in ds.items() if d} for ds in dims]
            assert nonzero[0] == nonzero[1] == nonzero[2], (
                "homology mismatch at %s degree %r: gcd %r, support %r, masks %r"
                % ((where, b.representative) + tuple(dims))
            )
            checked += 1
        # beta_1 twice: components - 1 as the minimal generators of a class,
        # and H~_0 of the masks
        want = {}
        for b, _pair in binomials(atlas)[0]:
            want[b.key] = want.get(b.key, 0) + 1
        for field in ("q", 32003):
            T = betti_table(atlas, field)
            got = {b.key: v for (i, b), v in T.entries.items() if i == 1}
            assert got == want, "beta_1 over %r differs from the components on %s" % (
                field, where
            )
    return "%d degrees, %d fibers carried" % (checked, carried)


# ---------------------------------------------------------------------------
# (b) theta composed with theta vanishes, fixtures and random lattices, and
# the generalized Scarf complex fits inside the minimal free resolution:
# its rank in homological degree i at degree b is at most beta_{i,b}.


def scarf_cells(X):
    """{(i, b): the number of cells of X in homological degree i >= 1 at
    degree b}."""
    cells = {}
    for i in range(1, len(X.basis)):
        for c in X.basis[i]:
            cells[i, c.degree] = cells.get((i, c.degree), 0) + 1
    return cells


def scarf_ranks_within_betti(X, T, where):
    """Assert the bound on every (i, b) cell of X with i >= 1; returns
    the number of cells."""
    cells = scarf_cells(X)
    for (i, b), count in cells.items():
        assert count <= T.get(i, b), (
            "%d basis elements in homological degree %d at %r on %s, beta = %d"
            % (count, i, b.representative, where, T.get(i, b))
        )
    return len(cells)


def check_theta_squared(suite, rng, count=50):
    cells = 0
    for data in suite.values():
        X = data.complex
        cells += scarf_ranks_within_betti(X, data.table, data.name)
        assert verify_zero_composition(X), "theta^2 != 0 on %s" % data.name
        S = algebraic_scarf_subcomplex(X)
        assert verify_zero_composition(S), "theta^2 != 0 on %s scarf" % data.name
        for mode in ("strict", "paper-example"):
            SS = strongly_algebraic_subcomplex(X, data.table, mode=mode)
            assert verify_zero_composition(SS), (
                "theta^2 != 0 on %s strongly (%s)" % (data.name, mode)
            )
    for k, L in suite_b_lattices(rng, count):
        bound = small_scan_bound(L)
        P = enumerate_scarf_poset(L, bound)
        X = build_generalized_scarf_complex(P)
        assert verify_zero_composition(X), (
            "theta^2 != 0 on random lattice #%d %r" % (k, L.rows)
        )
        assert verify_zero_composition(algebraic_scarf_subcomplex(X))
        T = betti_scan(L, bound)
        cells += scarf_ranks_within_betti(X, T, "random lattice #%d" % k)
        for mode in ("strict", "paper-example"):
            SS = strongly_algebraic_subcomplex(X, T, mode=mode)
            assert verify_zero_composition(SS), (
                "theta^2 != 0 on random lattice #%d strongly (%s)" % (k, mode)
            )
    return "3 fixtures + %d random lattices, %d cells within beta" % (count, cells)


# ---------------------------------------------------------------------------
# (c) a subset of a fiber is some C_J exactly when its gcd is 1.


def expressible_as_witness_set(L, G):
    """Does the anchored J = {u0 - u} reproduce G as its monomial set?"""
    u0 = G[0]
    J = LatticeSubset(L, (tuple(a - b for a, b in zip(u0, u)) for u in G))
    return monomials_of(J) == G


def check_gcd_free_characterization(suite):
    checked = 0
    for data in suite.values():
        L = data.lattice
        zero = (0,) * L.n
        fibs = catalog_fibers(data)
        assert len(fibs) >= 3, "catalog too small for %s" % data.name
        for fib in fibs:
            ms = fib.members
            for size in range(1, len(ms) + 1):
                for G in itertools.combinations(ms, size):
                    expr = expressible_as_witness_set(L, G)
                    free = gcd_of(G) == zero
                    assert expr == free, (
                        "gcd-free criterion failed on %s subset %r: "
                        "expressible=%r gcd-free=%r" % (data.name, G, expr, free)
                    )
                    checked += 1
    assert checked >= 100, "only %d subsets exercised" % checked
    return "%d subsets" % checked


# ---------------------------------------------------------------------------
# (d) component lemmas: punctured gcds, reduced subsets stay basic fibers.


def check_component_lemmas(suite):
    from latticescarf.fibers import Fiber
    from latticescarf.scarf import bmax, is_basic_fiber

    comps = 0
    for data in suite.values():
        L = data.lattice
        for c in data.poset.elements:
            ms = c.monomials
            J = c.witness.members
            top = bmax(J)
            # gcd(C \ {m_a}) = bmax(J) - bmax(J \ {a}), for every a in J
            if len(ms) >= 2:
                for k, a in enumerate(J):
                    m = tuple(x - y for x, y in zip(top, a))
                    rest = tuple(u for u in ms if u != m)
                    sub = J[:k] + J[k + 1 :]
                    want = tuple(x - y for x, y in zip(top, bmax(sub)))
                    assert gcd_of(rest) == want, (
                        "punctured gcd identity failed on %s %r at %r"
                        % (data.name, ms, m)
                    )
            # [C \ I] is a basic fiber for every nonempty I properly inside C
            for size in range(1, len(ms)):
                for rest in itertools.combinations(ms, size):
                    red = reduce_by_gcd(rest)
                    fib = enumerate_fiber(L, red[0])
                    assert fib.members == red, (
                        "[C \\ I] is not a whole fiber on %s: %r" % (data.name, red)
                    )
                    assert is_basic_fiber(fib), (
                        "[C \\ I] is not basic on %s: %r" % (data.name, red)
                    )
            # a component of cardinality s carries one dimension of reduced
            # homology, concentrated at index s-2 of its induced gcd complex
            s = len(ms)
            if s >= 2:
                dims = complex_homology_dims(gcd_complex(Fiber(c.degree, ms)))
                for j, d in dims.items():
                    want = 1 if j == s - 2 else 0
                    assert d == want, (
                        "size lemma failed on %s component %r: H~_%d = %d"
                        % (data.name, ms, j, d)
                    )
            # cardinality-2 components fill their whole fiber
            if s == 2:
                fib = enumerate_fiber(L, c.degree.representative)
                assert fib.members == ms, (
                    "two-element component %r is not its whole fiber" % (ms,)
                )
            comps += 1
    return "%d components" % comps


# ---------------------------------------------------------------------------
# (e) the c-basic test and in_generalized_scarf accept the same sets.


def _anchored_membership(L, G, fib):
    """in_generalized_scarf of the anchored J for a gcd-free G inside fib;
    bmax(J) = G[0], so fib is the fiber the test enumerates."""
    u0 = G[0]
    J = LatticeSubset(L, (tuple(a - b for a, b in zip(u0, u)) for u in G))
    return _in_generalized_scarf(J, fib)


def _subset_family(rng, ms, comps, cap):
    """Subsets of a fiber to probe: exhaustive when small, else pairs,
    whole components, their unions and perturbations, plus random picks."""
    if len(ms) <= cap:
        for size in range(2, len(ms) + 1):
            for G in itertools.combinations(ms, size):
                yield G
        return
    for G in itertools.combinations(ms, 2):
        yield G
    outside = set(ms)
    for comp in comps:
        whole = tuple(sorted(comp, reverse=True))
        yield whole
        if len(comp) > 1:
            yield whole[:-1]
        extra = sorted(outside - set(comp), reverse=True)
        if extra:
            yield tuple(sorted(whole + (rng.choice(extra),), reverse=True))
    for c1, c2 in itertools.combinations(comps, 2):
        yield tuple(sorted(tuple(c1) + tuple(c2), reverse=True))
    for _ in range(60):
        size = rng.randint(3, min(8, len(ms)))
        yield tuple(sorted(rng.sample(ms, size), reverse=True))


def check_characterization(suite, rng, cap=12):
    checked = 0
    for data in suite.values():
        L = data.lattice
        zero = (0,) * L.n
        for b, _s, fib in full_fibers(L, data.bound, data.functional):
            ms = fib.members
            if not ms:
                continue
            accepted = {c.monomials for c in basic_components(fib)}
            if len(ms) == 1:
                # a singleton is gcd-free only when it is the unit monomial
                assert (accepted == {ms}) == (ms[0] == zero), (
                    "singleton fiber misclassified at %s %r"
                    % (data.name, b.representative)
                )
                checked += 1
                continue
            comps = (
                connected_components(gcd_complex(fib)) if len(ms) > 2 else [ms]
            )
            seen = set()
            for G in _subset_family(rng, ms, comps, cap):
                if G in seen:
                    continue
                seen.add(G)
                if gcd_of(G) != zero:
                    continue  # not expressible at this degree (Lemma 4.3)
                got = _anchored_membership(L, G, fib)
                want = G in accepted
                assert got == want, (
                    "characterization mismatch on %s degree %r subset %r: "
                    "in_generalized_scarf=%r basic-component=%r"
                    % (data.name, b.representative, G, got, want)
                )
                checked += 1
    return "%d anchored subsets" % checked


# ---------------------------------------------------------------------------
# (f) fiber enumeration against the brute-force box oracle.


def check_box_oracle(rng, count=100, box=8, classes_per_lattice=30):
    checked = 0
    for k in range(count):
        L = random_pointed_lattice(rng, 2, 4)
        groups = {}
        for u in itertools.product(range(box + 1), repeat=4):
            groups.setdefault(L.canonical_key(u), []).append(u)
        keys = sorted(groups, key=lambda key: (-len(groups[key]), key))
        keys = keys[:classes_per_lattice]
        zero_key = L.canonical_key((0, 0, 0, 0))
        if zero_key not in keys:
            keys.append(zero_key)
        for key in keys:
            members = groups[key]
            fib = enumerate_fiber(L, members[0])
            boxed = sorted(m for m in fib.members if max(m) <= box)
            assert boxed == sorted(members), (
                "box oracle mismatch on lattice #%d %r class %r: %r vs %r"
                % (k, L.rows, key, boxed, sorted(members))
            )
            checked += 1
    return "%d classes over %d lattices" % (checked, count)


# ---------------------------------------------------------------------------
# (g) Betti tables against the Euler-Hilbert identity of the K-polynomial
# (Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 8-9): for
# every scanned class b,
#
#     [b = 0] + sum_{i>=1} (-1)^i beta_{i,b}
#         = sum_{F subset [n]} (-1)^|F| [b - e_F has a monomial].
#
# The class b - e_F has a value at most b's, so it has a monomial iff the
# scan visited it; the right side needs no homology.


def euler_hilbert_mismatches(T):
    """The scanned class keys of a Betti table that break the identity.
    The classes come from reference_scan, as canonical keys; T.scanned
    must hold exactly those, and answers the right side."""
    L = T.lattice
    keys = reference_scan(L, T.bound, T.functional).scanned
    assert len(T.scanned) == len(keys), "scanned class counts differ"
    lhs = dict.fromkeys(keys, 0)
    lhs[L.canonical_key((0,) * L.n)] = 1
    for (i, b), beta in T.entries.items():
        lhs[b.key] += (-1) ** i * beta
    bad = []
    for key in sorted(keys):
        rhs = 0
        for F in itertools.product((0, 1), repeat=L.n):
            shifted = tuple(x - f for x, f in zip(key, F))
            if shifted in T.scanned:
                rhs += (-1) ** sum(F)
        if lhs[key] != rhs:
            bad.append(key)
    return bad


def squarefree_faces(L, key, keys):
    """The squarefree divisor complex of the class of the canonical key
    key, read from key membership alone: the F subset {0..n-1}, as vertex
    bitmasks in increasing order, with the canonical key of key - e_F in
    keys, the keys of every class a scan reached.  The value of b - e_F is
    at most b's, so it was reached iff it has a monomial."""
    out = []
    for F in range(1 << L.n):
        e = [F >> j & 1 for j in range(L.n)]
        if L.canonical_key(tuple(map(int.__sub__, key, e))) in keys:
            out.append(F)
    return out


def squarefree_betti_oracle(L, bound, w, field="q"):
    """{(i, class key): beta_{i,b}} for every class b that reference_scan
    reaches and every 1 <= i <= n, zeros included, from the squarefree
    divisor complex of b alone: F subset {0..n-1} is a face iff the class
    of b - e_F was scanned (its value is at most b's, so it was iff it has
    a monomial).  Suite (g) checks only the alternating sum of these
    faces; this reads their homology (complex_homology_dims), with no
    fiber member and no support mask."""
    keys = reference_scan(L, bound, w).scanned
    out = {}
    for key in keys:
        faces = squarefree_faces(L, key, keys)
        K = SimplicialComplex(
            range(L.n), [[j for j in range(L.n) if F >> j & 1] for F in faces]
        )
        dims = complex_homology_dims(K, field)
        for i in range(1, L.n + 1):
            out[(i, key)] = dims.get(i - 1, 0)
    return out


def check_euler_hilbert(suite, rng, random_count=10):
    checked = 0
    lattices = itertools.islice(suite_b_lattices(rng), random_count)
    for where, L, bound, w in scan_problems(suite, lattices):
        T = betti_scan(L, bound, functional=w)
        bad = euler_hilbert_mismatches(T)
        assert not bad, "Euler-Hilbert identity fails on %s at %r" % (where, bad[:5])
        checked += len(T.scanned)
    return "%d classes" % checked


# ---------------------------------------------------------------------------
# Extra spec invariants reused by granular tests.


def check_homogeneity(suite):
    entries = 0
    for data in suite.values():
        L = data.lattice
        X = data.complex
        for i in range(1, len(X.basis)):
            for (r, c), terms in X.differentials[i].items():
                src = X.basis[i][c].degree
                dst = X.basis[i - 1][r].degree
                assert class_leq(dst, src) and dst != src, (
                    "degree must strictly decrease on %s" % data.name
                )
                diff = tuple(
                    a - b for a, b in zip(src.representative, dst.representative)
                )
                for _sign, e in terms:
                    assert L.canonical_key(diff) == L.canonical_key(e), (
                        "inhomogeneous entry on %s: %r vs %r" % (data.name, diff, e)
                    )
                    entries += 1
    return "%d differential terms" % entries


def check_indispensable_generation(rng, count=25):
    """When every minimal generator is indispensable, the generalized
    complex collapses to the algebraic Scarf subcomplex."""
    hits = 0
    for _ in range(count):
        L = random_pointed_lattice(rng, 2, 4)
        bound = small_scan_bound(L)
        gens = minimal_generators(L, bound)
        indis = indispensable_binomials(L, bound)

        def by_degree(pairs):
            out = {}
            for b, _ in pairs:
                out[b.key] = out.get(b.key, 0) + 1
            return out

        if by_degree(gens) != by_degree(indis):
            continue
        P = enumerate_scarf_poset(L, bound)
        X = build_generalized_scarf_complex(P)
        S = algebraic_scarf_subcomplex(X)
        assert complexes_equal(X, S), (
            "indispensably generated lattice %r has G_L != Scarf" % (L.rows,)
        )
        hits += 1
    assert hits, "no indispensably generated lattice sampled"
    return "%d/%d lattices indispensably generated" % (hits, count)


def benchmark_workloads(monkeypatch):
    """perfbench/workloads.py and the oracle it imports, loaded by path
    (read only: no bytecode is written) and dropped again after the test,
    with the digests and pool of perfbench/expected.json."""
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("oracle", "workloads"):
        spec = importlib.util.spec_from_file_location(name, perfbench / (name + ".py"))
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    return module, json.loads((perfbench / "expected.json").read_text())
