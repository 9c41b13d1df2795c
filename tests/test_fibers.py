import itertools
import random

import pytest

from helpers import (
    catalog_fibers,
    enumerate_fiber_box_oracle,
    full_fibers,
    random_pointed_lattice,
)
from latticescarf.fibers import (
    Fiber,
    canonical_order,
    enumerate_fiber,
    gcd_of,
    monomial_str,
    reduce_by_gcd,
    support_mask,
)
from latticescarf.lattice_core import LatticeBasis, class_of, positive_functional
from latticescarf.linalg import size_reduce

ABD = (1, 1, 0, 1, 0)
AC2 = (1, 0, 2, 0, 0)
B2C = (0, 2, 1, 0, 0)
E2 = (0, 0, 0, 0, 2)


def test_fiber_bc(ex63):
    fib = enumerate_fiber(ex63.lattice, (0, 1, 1, 0, 0))
    assert set(fib.members) == {(0, 1, 1, 0, 0), (1, 0, 0, 1, 0)}


def test_fiber_of_zero(suite):
    for data in suite.values():
        n = data.lattice.n
        fib = enumerate_fiber(data.lattice, (0,) * n)
        assert fib.members == ((0,) * n,)


def test_fiber_182(ex64):
    fib = enumerate_fiber(ex64.lattice, (2, 2, 0, 0, 0, 0))
    want = {
        (2, 2, 0, 0, 0, 0),  # a^2 b^2 : 78 + 104
        (3, 0, 1, 0, 0, 0),  # a^3 c   : 117 + 65
        (0, 1, 2, 0, 0, 0),  # b c^2   : 52 + 130
        (0, 0, 0, 0, 2, 1),  # e^2 f   : 112 + 70
        (0, 0, 0, 1, 0, 2),  # d f^2   : 42 + 140
        (0, 0, 0, 3, 1, 0),  # d^3 e   : 126 + 56
    }
    assert set(fib.members) == want
    weights = (39, 52, 65, 42, 56, 70)
    for m in want:
        assert sum(w * x for w, x in zip(weights, m)) == 182


def test_congruent_representatives_give_one_fiber(ex63):
    f1 = enumerate_fiber(ex63.lattice, ABD)
    f2 = enumerate_fiber(ex63.lattice, E2)  # same class, other representative
    assert f1 == f2 and f1.members == f2.members
    assert f1.degree.representative == ABD and f2.degree.representative == E2


def test_fiber_container_protocol(ex63):
    fib = enumerate_fiber(ex63.lattice, ABD)
    assert len(fib) == 4
    assert ABD in fib
    assert (9, 9, 9, 9, 9) not in fib
    assert set(iter(fib)) == set(fib.members)
    again = enumerate_fiber(ex63.lattice, ABD)
    assert fib == again and hash(fib) == hash(again)
    assert "Fiber" in repr(fib)


def test_empty_fiber(ex63):
    fib = enumerate_fiber(ex63.lattice, (-1, 1, 0, 0, 0))
    assert len(fib) == 0
    assert fib.members == ()


def test_fiber_masks_are_the_members_support_masks(suite, ex63):
    """Fiber.masks[k] is support_mask(members[k]) on enumerated fibers,
    the empty fiber and a fiber built by hand (whose members it sorts)."""
    fibs = [enumerate_fiber(ex63.lattice, (-1, 1, 0, 0, 0))]
    for data in suite.values():
        fibs += catalog_fibers(data)
    hand = Fiber(class_of(ex63.lattice, E2), [E2, ABD, B2C, AC2])
    assert hand.members == (ABD, AC2, B2C, E2)
    for fib in fibs + [hand]:
        assert fib.masks == tuple(map(support_mask, fib.members))
    assert fibs[0].masks == () and hand.masks == (0b1011, 0b101, 0b110, 0b10000)


def test_fiber_vector_of_wrong_dimension(ex61):
    for u0 in ((1, 1, 1), (1, 1, 1, 1, 1)):
        with pytest.raises(ValueError, match="wrong dimension"):
            enumerate_fiber(ex61.lattice, u0)


def test_zero_lattice_fibers():
    L = LatticeBasis([], n=3)
    fib = enumerate_fiber(L, (2, 0, 1))
    assert fib.members == ((2, 0, 1),)
    assert fib.degree == class_of(L, (2, 0, 1))
    assert enumerate_fiber(L, (2, -1, 1)).members == ()


def test_enumerate_fiber_names_a_negative_member(monkeypatch):
    """A descent member with a negative entry raises RuntimeError naming
    the first such member in canonical order; monomials over no variables
    pass the check."""
    import latticescarf.fibers as fibers

    bad = [(1, 0, 2), (0, 3, -1), (2, -2, 0), (0, 0, 1)]
    monkeypatch.setattr(
        fibers, "integer_solutions", lambda rows, r: [((), u) for u in bad]
    )
    with pytest.raises(RuntimeError) as err:
        enumerate_fiber(LatticeBasis([], n=3), (1, 0, 2))
    assert str(err.value) == "fiber member (2, -2, 0) has a negative entry"
    monkeypatch.undo()
    assert enumerate_fiber(LatticeBasis([], n=0), ()).members == ((),)


def test_coset_invariance(suite):
    rng = random.Random(7)
    for data in suite.values():
        L = data.lattice
        fib = enumerate_fiber(L, L.rows[0])
        for _ in range(5):
            shift = [rng.randint(-2, 2) for _ in range(L.r)]
            u = tuple(
                x + sum(s * row[j] for s, row in zip(shift, L.rows))
                for j, x in enumerate(L.rows[0])
            )
            assert enumerate_fiber(L, u) == fib


def test_box_oracle_agreement(ex63):
    fib = enumerate_fiber(ex63.lattice, ABD)
    assert len(fib) == 4
    boxed = enumerate_fiber_box_oracle(ex63.lattice, ABD, 8)
    assert boxed.members == fib.members
    zero = enumerate_fiber_box_oracle(ex63.lattice, (0, 0, 0, 0, 0), 3)
    assert zero.members == ((0, 0, 0, 0, 0),)


def test_box_oracle_random_lattices():
    rng = random.Random(11)
    for _ in range(20):
        L = random_pointed_lattice(rng, 2, 4)
        u0 = tuple(rng.randint(0, 4) for _ in range(4))
        fib = enumerate_fiber(L, u0)
        box = max((max(m) for m in fib.members), default=0) + 4
        assert enumerate_fiber_box_oracle(L, u0, box) == fib


def test_full_fibers_oracle_random_lattices():
    """enumerate_fiber against helpers.full_fibers, which lists every
    monomial up to a functional bound and shares no code with
    Fourier-Motzkin, on seeded pointed lattices of rank 1 (where the first
    level of the descent is the last) to 5; ranks 4 and 5, where the
    size-reduced basis the descent runs on departs most from L.rows, at
    smaller bounds.  Every fiber up to the bound (on the one lattice with
    over 3000 of them, every third) comes back from its first member.
    Random representatives of value up to the bound, most with negative
    entries, give their class's fiber, or the empty fiber when full_fibers
    reached no monomial of it."""
    rng = random.Random(16)
    seen = {"fibers": 0, "multi": 0, "negative": 0, "empty": 0, "reduced": 0}
    shapes = [(1, 3, 3), (1, 4, 3), (2, 4, 3), (2, 5, 3), (3, 4, 3), (3, 5, 3)]
    for r, n, k in shapes + [(4, 5, 2), (4, 6, 1), (5, 6, 1)]:
        for _ in range(4):
            L = random_pointed_lattice(rng, r, n)
            w = positive_functional(L)
            bound = k * max(w)
            seen["reduced"] += size_reduce(L.rows) != L.rows
            fibers = {b.key: fib for b, _, fib in full_fibers(L, bound, w)}
            # at most 3000 fibers of a lattice, evenly spaced
            for fib in list(fibers.values())[:: 1 + len(fibers) // 3000]:
                assert enumerate_fiber(L, fib.members[0]).members == fib.members
                seen["fibers"] += 1
                seen["multi"] += len(fib) > 1
            for _ in range(30):
                u = tuple(rng.randint(-4, 6) for _ in range(n))
                if sum(map(int.__mul__, w, u)) > bound:
                    continue
                want = fibers.get(class_of(L, u).key)
                assert enumerate_fiber(L, u).members == (want.members if want else ())
                seen["negative"] += min(u) < 0
                seen["empty"] += want is None
    assert seen["fibers"] >= 10000 and seen["multi"] >= 5000
    assert seen["negative"] >= 300 and seen["empty"] >= 300
    assert seen["reduced"] >= 20


def test_gcd_of():
    assert gcd_of([ABD, AC2, B2C]) == (0, 0, 0, 0, 0)
    assert gcd_of([ABD]) == ABD
    assert gcd_of([ABD, AC2]) == (1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        gcd_of([])


def test_support_mask():
    assert support_mask(ABD) == 0b01011
    assert support_mask(E2) == 0b10000
    assert support_mask((0, 0, 0, 0, 0)) == 0
    # a pair shares a divisor iff its masks meet
    for u, v in itertools.combinations([ABD, AC2, B2C, E2], 2):
        assert bool(support_mask(u) & support_mask(v)) == any(gcd_of([u, v]))


def test_reduce_by_gcd():
    assert set(reduce_by_gcd([ABD, AC2])) == {(0, 1, 0, 1, 0), (0, 0, 2, 0, 0)}
    assert reduce_by_gcd([ABD]) == ((0, 0, 0, 0, 0),)
    assert gcd_of(reduce_by_gcd([ABD, AC2, E2])) == (0, 0, 0, 0, 0)


def test_reduce_lands_at_lower_class(ex63):
    L = ex63.lattice
    red = reduce_by_gcd([ABD, B2C])
    assert set(red) == {(1, 0, 0, 1, 0), (0, 1, 1, 0, 0)}  # {ad, bc}
    assert class_of(L, red[0]) == class_of(L, (0, 1, 1, 0, 0))


def test_canonical_order():
    ms = [(0, 1), (1, 0), (0, 2)]
    assert canonical_order(ms) == ((1, 0), (0, 2), (0, 1))


def test_monomial_str():
    names = ("a", "b", "c")
    assert monomial_str((2, 0, 1), names) == "a^2*c"
    assert monomial_str((0, 0, 0), names) == "1"
    assert monomial_str((0, 1, 0), names) == "b"


def test_nested_reduction_identity(suite):
    checked = 0
    for data in suite.values():
        for fib in catalog_fibers(data):
            T = set(fib.members)
            for size in range(0, len(T) - 1):
                for I in itertools.combinations(sorted(T), size):
                    rest = T - set(I)
                    if len(rest) < 2:
                        continue
                    g = gcd_of(rest)
                    inner = set(reduce_by_gcd(rest))
                    for m in rest:
                        lhs = set(reduce_by_gcd(rest - {m}))
                        m_red = tuple(x - y for x, y in zip(m, g))
                        rhs = set(reduce_by_gcd(inner - {m_red}))
                        assert lhs == rhs
                        checked += 1
    assert checked >= 100
