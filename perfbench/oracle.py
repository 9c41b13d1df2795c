"""Independent check of Betti tables over a grading semigroup.

The K-polynomial of S/I_L, read off degree by degree (Miller-Sturmfels,
Combinatorial Commutative Algebra, ch. 8), gives for every degree d of
the semigroup NA generated by the columns a_1..a_n:

    [d = 0] + sum_{i>=1} (-1)^i beta_{i,d}
        = sum_{F subset [n]} (-1)^|F| [d - sum_{j in F} a_j in NA].

The right side needs only semigroup membership, decided here by a
breadth-first search over the generators; no library code is used.
"""

from itertools import combinations


def semigroup_elements(columns, bound):
    """Every element of NA whose coordinate sum is at most bound.
    Columns must be nonnegative with positive sums."""
    zero = (0,) * len(columns[0])
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for d in frontier:
            for a in columns:
                e = tuple(x + y for x, y in zip(d, a))
                if sum(e) <= bound and e not in seen:
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return seen


def euler_hilbert_mismatches(semigroup_rows, bound, report):
    """Degrees where a `betti` report breaks the identity, as a list.

    The grading functional of a semigroup problem is the vector of column
    sums, so the scanned degrees are the elements of NA with coordinate
    sum at most the bound.
    """
    columns = [tuple(r[j] for r in semigroup_rows) for j in range(len(semigroup_rows[0]))]
    members = semigroup_elements(columns, bound)
    shifts = []
    for k in range(len(columns) + 1):
        for F in combinations(columns, k):
            shifts.append(((-1) ** k, tuple(sum(c) for c in zip(*F)) if F else (0,) * len(columns[0])))
    lhs = {d: 0 for d in members}
    lhs[(0,) * len(columns[0])] = 1
    bad = []
    for e in report["result"]["entries"]:
        d = tuple(e["degree"]["semigroup_degree"])
        if d not in lhs:
            bad.append(list(d))
            continue
        lhs[d] += (-1) ** e["i"] * e["beta"]
    for d in sorted(members):
        rhs = sum(
            sign for sign, s in shifts if tuple(x - y for x, y in zip(d, s)) in members
        )
        if lhs[d] != rhs:
            bad.append(list(d))
    return bad
