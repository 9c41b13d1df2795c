import copy

import pytest

from helpers import (
    check_homogeneity,
    complexes_equal,
    restriction_oracle,
    strongly_oracle,
)
from latticescarf.fibers import enumerate_fiber
from latticescarf.scarf import (
    AlgebraicComplex,
    ScarfPoset,
    _restrict,
    algebraic_scarf_subcomplex,
    build_generalized_scarf_complex,
    enumerate_scarf_poset,
    indispensable_binomials,
    minimal_generators,
    strongly_algebraic_subcomplex,
    verify_zero_composition,
)
from latticescarf.homology import betti_scan
from latticescarf.lattice_core import DegreeClass, LatticeBasis

ABD = (1, 1, 0, 1, 0)


def degree2_index(data, sdeg):
    X = data.complex
    for col, c in enumerate(X.basis[2]):
        if data.semigroup_degree(c.degree) == sdeg:
            return col
    raise AssertionError("no degree-2 element at %r" % (sdeg,))


def row_index(data, i, sdeg):
    X = data.complex
    for row, c in enumerate(X.basis[i]):
        if data.semigroup_degree(c.degree) == sdeg:
            return row
    raise AssertionError("no degree-%d element at %r" % (i, sdeg))


def test_generalized_ranks(suite):
    assert suite["ex61"].complex.ranks() == (1, 4, 4, 1)
    assert suite["ex63"].complex.ranks() == (1, 3, 2)
    assert suite["ex64"].complex.ranks() == (1, 6, 4)


def test_zero_composition(suite):
    for data in suite.values():
        assert verify_zero_composition(data.complex)


def test_assembly_reduces_no_class(monkeypatch, suite):
    """Complex assembly finds each boundary target by its monomials alone:
    assembly on a fresh poset, both restrictions and the theta^2 check
    compute no coset key."""

    def refuse(*args):
        raise AssertionError("complex assembly reduced a class")

    ranks = {"ex61": (1, 4, 4, 1), "ex63": (1, 3, 2), "ex64": (1, 6, 4)}
    for name, data in suite.items():
        P = enumerate_scarf_poset(data.lattice, data.bound, data.functional)
        T = data.table
        with monkeypatch.context() as m:
            m.setattr(LatticeBasis, "canonical_key", refuse)
            X = build_generalized_scarf_complex(P)
            S = algebraic_scarf_subcomplex(X)
            strong = strongly_algebraic_subcomplex(X, T)
            zero = [verify_zero_composition(Y) for Y in (X, S, strong)]
        assert X.ranks() == ranks[name] and zero == [True] * 3
        assert complexes_equal(X, data.complex)


def test_differential_terms_at_10_8(ex63):
    X = ex63.complex
    col = degree2_index(ex63, (10, 8))
    terms = [(r, s, e) for (r, c), ts in X.differentials[2].items() if c == col for s, e in ts]
    by_row = {row: (sign, e) for row, sign, e in terms}
    assert len(terms) == 3 and len(by_row) == 3
    # dropping abd hits the (8,4) fiber with coefficient c
    assert by_row[row_index(ex63, 1, (8, 4))] == (1, (0, 0, 1, 0, 0))
    # dropping ac^2 hits the (6,6) fiber with coefficient b
    assert by_row[row_index(ex63, 1, (6, 6))] == (-1, (0, 1, 0, 0, 0))
    # dropping b^2c hits the (4,8) fiber with coefficient a
    assert by_row[row_index(ex63, 1, (4, 8))] == (1, (1, 0, 0, 0, 0))


def test_differential_terms_cardinality_two(ex63):
    X = ex63.complex
    col = row_index(ex63, 1, (6, 6))
    terms = [(r, s, e) for (r, c), ts in X.differentials[1].items() if c == col for s, e in ts]
    # theta(E_{ad,bc}) = bc * E_1 - ad * E_1
    assert set(terms) == {
        (0, 1, (0, 1, 1, 0, 0)),
        (0, -1, (1, 0, 0, 1, 0)),
    }


def test_degree1_basis_is_fiberwise(ex63):
    X = ex63.complex
    degs = {ex63.semigroup_degree(c.degree) for c in X.basis[1]}
    assert degs == {(6, 6), (8, 4), (4, 8)}
    for c in X.basis[1]:
        fib = enumerate_fiber(ex63.lattice, c.degree.representative)
        assert c.monomials == fib.members


def test_homogeneity(suite):
    check_homogeneity(suite)


def test_scarf_subcomplex(suite):
    X61 = suite["ex61"].complex
    S61 = algebraic_scarf_subcomplex(X61)
    assert complexes_equal(X61, S61)

    ex63 = suite["ex63"]
    S63 = algebraic_scarf_subcomplex(ex63.complex)
    assert S63.ranks() == (1, 3, 1)
    kept = {ex63.semigroup_degree(c.degree) for c in S63.basis[2]}
    assert kept == {(8, 10)}

    S64 = algebraic_scarf_subcomplex(suite["ex64"].complex)
    assert S64.ranks() == (1, 6, 2)
    assert verify_zero_composition(S63) and verify_zero_composition(S64)


def test_strongly_algebraic_modes(suite):
    ex63 = suite["ex63"]
    strict = strongly_algebraic_subcomplex(ex63.complex, ex63.table, mode="strict")
    assert strict.ranks() == (1, 3, 1)
    loose = strongly_algebraic_subcomplex(
        ex63.complex, ex63.table, mode="paper-example"
    )
    assert loose.ranks() == (1, 3, 2)
    scarf = algebraic_scarf_subcomplex(ex63.complex)
    assert complexes_equal(strict, scarf)

    ex64 = suite["ex64"]
    s64 = algebraic_scarf_subcomplex(ex64.complex)
    for mode in ("strict", "paper-example"):
        got = strongly_algebraic_subcomplex(ex64.complex, ex64.table, mode=mode)
        assert complexes_equal(got, s64)

    ex61 = suite["ex61"]
    for mode in ("strict", "paper-example"):
        got = strongly_algebraic_subcomplex(ex61.complex, ex61.table, mode=mode)
        assert complexes_equal(got, ex61.complex)


def test_strongly_algebraic_modes_read_the_entries_below(ex61):
    """Every cell of ex61 is kept in both modes.  One entry (j, d) added
    to its table, d a degree below the degree b of a cell in the top
    homological degree i, tells the rules apart: strict drops the cell
    for a j-Betti degree of any multiplicity once beta_{j,b} > 0;
    paper-example drops it only for an i-Betti degree of beta != 1."""
    X, T = ex61.complex, ex61.table
    i = len(X.basis) - 1
    cell = X.basis[i][0]
    rep = cell.degree.representative
    k = next(k for k, x in enumerate(rep) if x)
    d = DegreeClass(X.lattice, [x - (j == k) for j, x in enumerate(rep)])
    assert T.leq(d, cell.degree)
    for entry, beta, strict, paper in (
        ((i, d), 1, False, True),
        ((i, d), 2, False, False),
        ((i + 1, d), 2, True, True),
    ):
        U = copy.copy(T)
        U.entries = dict(T.entries)
        U.entries[entry] = beta
        for mode, want in (("strict", strict), ("paper-example", paper)):
            got = strongly_algebraic_subcomplex(X, U, mode=mode)
            assert any(cell in layer for layer in got.basis) == want, (entry, beta, mode)


def test_strongly_algebraic_bad_mode(ex63):
    with pytest.raises(ValueError):
        strongly_algebraic_subcomplex(ex63.complex, ex63.table, mode="loose")


def test_strongly_algebraic_rejects_another_lattices_table(ex61, ex63):
    """A Betti table over another lattice raises, rather than cutting the
    complex by degrees it does not hold: ex61's table would leave ex63's
    complex at ranks (1,)."""
    assert strongly_algebraic_subcomplex(ex63.complex, ex63.table).ranks() == (1, 3, 1)
    for mode in ("strict", "paper-example"):
        with pytest.raises(ValueError, match="different lattices"):
            strongly_algebraic_subcomplex(ex63.complex, ex61.table, mode=mode)


def test_strongly_algebraic_rejects_a_table_of_a_smaller_bound(ex63):
    """A Betti table scanned to a smaller bound than the complex raises,
    rather than reading beta = 0 at the degrees it never scanned and
    dropping their cells."""
    T = betti_scan(ex63.lattice, 15, functional=ex63.functional)
    for mode in ("strict", "paper-example"):
        with pytest.raises(ValueError, match="exceeds the scan bound"):
            strongly_algebraic_subcomplex(ex63.complex, T, mode=mode)


def test_scarf_always_inside_strongly(suite):
    # every Scarf basis element survives in both strongly-algebraic modes
    for data in suite.values():
        S = algebraic_scarf_subcomplex(data.complex)
        for mode in ("strict", "paper-example"):
            SS = strongly_algebraic_subcomplex(data.complex, data.table, mode=mode)
            for i, layer in enumerate(S.basis):
                have = {c.monomials for c in SS.basis[i]} if i < len(SS.basis) else set()
                for c in layer:
                    assert c.monomials in have


def test_unclosed_restriction_raises(ex63):
    P = ex63.poset
    keep = [
        c
        for c in P.elements
        if ex63.semigroup_degree(c.degree) != (8, 4)
    ]
    broken = ScarfPoset(P.lattice, keep, P.bound)
    with pytest.raises(ValueError):
        build_generalized_scarf_complex(broken)


def test_restrictions_match_the_position_remap(suite):
    """Each subcomplex, built from its cells alone, has the differentials
    of its complex with rows and columns moved to the kept positions."""
    for data in suite.values():
        X = data.complex
        whole = [tuple(c for c in bs if c.whole) for bs in X.basis]
        while not whole[-1]:
            whole.pop()
        cases = [(whole, algebraic_scarf_subcomplex(X))]
        for mode in ("strict", "paper-example"):
            Y = strongly_algebraic_subcomplex(X, data.table, mode=mode)
            cases.append((strongly_oracle(X, data.table, mode), Y))
        for bases, Y in cases:
            assert Y.basis == tuple(bases), data.name
            assert Y.differentials == restriction_oracle(X, bases), data.name


def test_restriction_not_closed_under_theta_raises(ex63):
    """Keeping ex63's degree-2 cells but none of degree 1 leaves every
    boundary target out: the constructor raises, as the remap does."""
    X = ex63.complex
    with pytest.raises(ValueError, match="not in the basis"):
        _restrict(X, lambda i, _c: i != 1)
    kept = [X.basis[0], (), X.basis[2]]
    with pytest.raises(ValueError, match="not closed"):
        restriction_oracle(X, kept)


def test_differentials_are_a_function_of_the_basis(suite):
    """A complex rebuilt from its basis alone is the same complex, and its
    cells keep the boundaries they computed once."""
    for data in suite.values():
        X = data.complex
        Y = AlgebraicComplex(X.lattice, X.basis)
        assert complexes_equal(X, Y)
        for bs in X.basis[1:]:
            for c in bs:
                assert len(c.boundary) == c.cardinality
                assert c.boundary is c.boundary


def test_top_degree(suite):
    assert suite["ex61"].complex.top_degree() == 3
    assert suite["ex63"].complex.top_degree() == 2


def test_indispensable_binomials_ex63(ex63):
    got = indispensable_binomials(ex63.lattice, ex63.bound, ex63.functional)
    degs = {ex63.semigroup_degree(b) for b, _pair in got}
    assert degs == {(6, 6), (8, 4), (4, 8)}
    pairs = {pair for _b, pair in got}
    assert pairs == {
        ((1, 0, 0, 1, 0), (0, 1, 1, 0, 0)),  # ad - bc
        ((1, 0, 1, 0, 0), (0, 2, 0, 0, 0)),  # ac - b^2
        ((0, 1, 0, 1, 0), (0, 0, 2, 0, 0)),  # bd - c^2
    }


def test_indispensable_binomials_ex64(ex64):
    got = indispensable_binomials(ex64.lattice, ex64.bound, ex64.functional)
    degs = sorted(ex64.semigroup_degree(b) for b, _pair in got)
    assert degs == [(104,), (112,), (117,), (126,), (130,), (140,)]


def test_indispensable_binomials_zero_lattice():
    assert indispensable_binomials(LatticeBasis([], n=2), 10) == []


def test_minimal_generators_ex63(ex63):
    gens = minimal_generators(ex63.lattice, ex63.bound, ex63.functional)
    assert len(gens) == 4
    by_deg = {ex63.semigroup_degree(b): pair for b, pair in gens}
    assert by_deg[(10, 8)] == (ABD, (0, 0, 0, 0, 2))  # abd - e^2
    assert by_deg[(6, 6)] == ((1, 0, 0, 1, 0), (0, 1, 1, 0, 0))


def test_minimal_generators_ex61(ex61):
    gens = minimal_generators(ex61.lattice, ex61.bound, ex61.functional)
    by_deg = {ex61.semigroup_degree(b): pair for b, pair in gens}
    assert set(by_deg) == {(4, 4), (6, 6), (9, 3), (3, 9)}
    assert by_deg[(4, 4)] == ((1, 0, 0, 1), (0, 1, 1, 0))  # ad - bc
    assert by_deg[(6, 6)] == ((1, 0, 2, 0), (0, 2, 0, 1))  # ac^2 - b^2d
    assert by_deg[(9, 3)] == ((2, 0, 1, 0), (0, 3, 0, 0))  # a^2c - b^3
    assert by_deg[(3, 9)] == ((0, 1, 0, 2), (0, 0, 3, 0))  # bd^2 - c^3


def test_minimal_generators_match_1_betti(suite):
    for data in suite.values():
        gens = minimal_generators(data.lattice, data.bound, data.functional)
        want = {b.key for b in data.table.degrees(1)}
        got = {b.key for b, _pair in gens}
        assert got == want
        # one generator per 1-Betti degree in these fixtures
        assert len(gens) == data.table.total(1)


def test_generators_zero_lattice():
    P = enumerate_scarf_poset(LatticeBasis([], n=2), 10)
    X = build_generalized_scarf_complex(P)
    assert X.ranks() == (1,)
    assert verify_zero_composition(X)
    assert minimal_generators(LatticeBasis([], n=2), 10) == []


def test_empty_poset_complex(ex63):
    P = ScarfPoset(ex63.lattice, (), 40)
    X = build_generalized_scarf_complex(P)
    assert X.ranks() == ()
    assert X.top_degree() == -1
    assert verify_zero_composition(X)
    assert algebraic_scarf_subcomplex(X).ranks() == ()


def test_scans_never_enumerate_fibers(monkeypatch, capsys):
    """Scan-level functions read every fiber from the degree scan: with
    Fourier-Motzkin enumeration disabled they still run, and they leave
    nothing behind on the lattice."""
    import sys

    from latticescarf import cli
    from latticescarf.fixtures import fixture_problem
    from latticescarf.homology import (
        betti_scan,
        minimal_betti_degrees,
        scan_degree_classes,
    )
    from latticescarf.scarf import is_basic_fiber

    def forbidden(*args, **kwargs):
        raise AssertionError("enumerate_fiber called from a scan")

    for name, module in list(sys.modules.items()):
        if name.startswith("latticescarf") and "enumerate_fiber" in vars(module):
            monkeypatch.setattr(module, "enumerate_fiber", forbidden)
    spec = fixture_problem("ex63")
    L, w = spec.lattice, spec.functional()
    before = dict(vars(L))
    T = betti_scan(L, 40, functional=w)
    assert {i: T.total(i) for i in T.homological_degrees()} == {1: 4, 2: 5, 3: 2}
    assert len(minimal_betti_degrees(T, 1)) == 3
    X = build_generalized_scarf_complex(enumerate_scarf_poset(L, 40, w))
    assert X.ranks() == (1, 3, 2)
    assert algebraic_scarf_subcomplex(X).ranks() == (1, 3, 1)
    for mode in ("strict", "paper-example"):
        strongly_algebraic_subcomplex(X, T, mode=mode)
    assert len(minimal_generators(L, 40, w)) == 4
    assert len(indispensable_binomials(L, 40, w)) == 3
    # the atlas carries every fiber whose maximal supports share no variable
    atlas = scan_degree_classes(L, 40, w)
    fibs = [f for f in atlas.fibers if len(f) == 3]
    assert [is_basic_fiber(f) for f in fibs].count(True) == 1
    assert vars(L) == before
    assert cli.main(["verify", "--fixture", "ex63"]) == 0
    args = ["complex", "--fixture", "ex63", "--bound", "40", "--kind", "scarf"]
    assert cli.main(args) == 0
    capsys.readouterr()
