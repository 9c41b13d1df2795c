import collections
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import latticescarf
from helpers import benchmark_workloads, export_dot_gcd_oracle
from latticescarf.cli import (
    ParseError,
    _parse_degree,
    export_dot,
    main,
    parse_spec,
    problem_from_dict,
    run_command,
)
from latticescarf.fibers import Fiber, MemberPacking, enumerate_fiber, support_mask
from latticescarf.fixtures import fixture_names, fixture_problem
from latticescarf.lattice_core import DegreeClass, LatticeBasis, NotPointedError

EX63 = {
    "name": "ex63",
    "semigroup": [[6, 4, 2, 0, 5], [0, 2, 4, 6, 4]],
    "variables": ["a", "b", "c", "d", "e"],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_problem_from_dict_ex63():
    spec = problem_from_dict(EX63)
    assert spec.variables == ("a", "b", "c", "d", "e")
    assert spec.lattice.r == 3
    assert spec.semigroup is not None


def test_problem_from_dict_ex64():
    spec = fixture_problem("ex64")
    assert len(spec.variables) == 6
    assert spec.lattice.r == 5


def test_problem_from_dict_errors():
    with pytest.raises(ParseError):
        problem_from_dict({"semigroup": [[6, 0], [0, 0]]})  # zero column
    with pytest.raises(ParseError):
        problem_from_dict({"semigroup": [[1, 2]], "lattice": [[1, -2]]})
    with pytest.raises(ParseError):
        problem_from_dict({"name": "x"})
    with pytest.raises(ParseError):
        problem_from_dict({"semigroup": [[1, 2]], "extra": 1})
    with pytest.raises(ParseError):
        problem_from_dict({"semigroup": [[1, 2]], "variables": ["x"]})
    with pytest.raises(ParseError):
        problem_from_dict({"semigroup": [[1, 2]], "variables": ["x", "x"]})
    with pytest.raises(ParseError):
        problem_from_dict({"semigroup": [[1, True]]})
    with pytest.raises(ParseError):
        problem_from_dict({"lattice": [[1, -1], [2, -2]]})  # dependent rows
    # entries and row lengths are checked by the matrix constructors
    with pytest.raises(ParseError):
        problem_from_dict({"lattice": [[1, -1, 0], [0, 1]]})
    with pytest.raises(ParseError):
        problem_from_dict({"lattice": [[1, -1.0]]})
    with pytest.raises(ParseError):
        problem_from_dict({"lattice": [[1, True]]})
    with pytest.raises(ParseError):
        problem_from_dict({"semigroup": [[1, 2], [3]]})
    with pytest.raises(ParseError):
        problem_from_dict([1, 2])
    with pytest.raises(NotPointedError):
        problem_from_dict({"lattice": [[1, 1]]})


def test_cli_malformed_lattice(capsys, tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"lattice": [[1, -1, 0], [0, 1]]}))
    code, out, err = run_cli(capsys, "betti", "--spec", str(path), "--bound", "4")
    assert code == 2 and out == ""
    assert err == "error: lattice: lattice rows have unequal lengths\n"


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[6, 4, 2], [0, 2]], "semigroup matrix rows have unequal lengths"),
        ([[6, 4, 2], [0, 2, True]], "semigroup matrix entries must be integers"),
    ],
)
def test_cli_malformed_semigroup(capsys, tmp_path, rows, message):
    """SemigroupMatrix and LatticeBasis share one row validator, and each
    names its own matrix."""
    path = tmp_path / "sg.json"
    path.write_text(json.dumps({"semigroup": rows}))
    code, out, err = run_cli(capsys, "betti", "--spec", str(path), "--bound", "4")
    assert code == 2 and out == ""
    assert err == "error: semigroup: %s\n" % message


def test_variables_defaulted():
    spec = problem_from_dict({"lattice": [[1, -1]]})
    assert spec.variables == ("x1", "x2")
    assert spec.name == "problem"


def test_parse_spec_file(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"semigroup": [[2, 3]]}))
    spec = parse_spec(str(path))
    assert spec.name == "prob"  # falls back to the file stem
    with pytest.raises(ParseError):
        parse_spec(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        parse_spec(str(bad))


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe{}", '{"name": "\xe9", "lattice": [[1, -1]]}'.encode("latin-1")],
)
def test_cli_spec_not_utf8(capsys, tmp_path, data):
    """A spec that is not UTF-8, whatever the locale, is bad JSON input:
    exit 2 with one error line that names the file."""
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "betti", "--spec", str(path), "--bound", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: %s is not valid JSON: " % path)
    assert err.count("\n") == 1 and err.endswith("\n")


def test_fixture_names():
    assert set(fixture_names()) == {"ex61", "ex63", "ex64"}


def test_cli_fiber(capsys):
    code, out, _ = run_cli(
        capsys, "fiber", "--fixture", "ex63", "--degree", "10,8"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "fiber"
    assert rep["problem"] == "ex63"
    assert rep["result"]["count"] == 4
    assert "a*b*d" in rep["result"]["monomials"]
    assert "e^2" in rep["result"]["monomials"]
    assert rep["result"]["degree"]["semigroup_degree"] == [10, 8]


def test_cli_fiber_of_unit(capsys):
    code, out, _ = run_cli(capsys, "fiber", "--fixture", "ex63", "--degree", "0,0")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["count"] == 1
    assert rep["result"]["monomials"] == ["1"]


def test_cli_degree_not_in_image(capsys):
    code, _, err = run_cli(capsys, "fiber", "--fixture", "ex63", "--degree", "1,1")
    assert code == 2
    assert "error:" in err


def test_cli_degree_wrong_length(capsys, tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"lattice": [[1, -1]]}))
    code, _, err = run_cli(
        capsys, "fiber", "--spec", str(path), "--degree", "1,0,0"
    )
    assert code == 2 and "error:" in err
    code, out, _ = run_cli(capsys, "fiber", "--spec", str(path), "--degree", "2,2")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 5


def test_cli_betti(capsys):
    code, out, _ = run_cli(
        capsys, "betti", "--fixture", "ex63", "--bound", "40"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["totals"] == {"1": 4, "2": 5, "3": 2}
    mins = rep["result"]["minimal_degrees"]["1"]
    assert sorted(tuple(m["semigroup_degree"]) for m in mins) == [
        (4, 8),
        (6, 6),
        (8, 4),
    ]
    assert rep["provenance"]["bound"] == 40 and rep["provenance"]["field"] == "q"
    # the command line's spelling of the rationals reaches the library as "q"
    code, upper, _ = run_cli(
        capsys, "betti", "--fixture", "ex63", "--bound", "40", "--field", "Q"
    )
    assert code == 0 and upper == out


def test_cli_betti_finite_field(capsys):
    code, out, _ = run_cli(
        capsys, "betti", "--fixture", "ex61", "--bound", "40", "--field", "fp:32003"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["totals"] == {"1": 4, "2": 4, "3": 1}
    assert rep["provenance"]["field"] == "32003"


def test_cli_bad_field(capsys):
    # fp:4 once ran ranks mod 4 and printed negative Betti numbers
    for bad in ("fp:x", "fp:1", "fp:4", "fp:%d" % 10**30, "gf2"):
        code, _, err = run_cli(
            capsys, "betti", "--fixture", "ex61", "--bound", "10", "--field", bad
        )
        assert code == 2 and "error:" in err


def test_cli_components_at_degree(capsys):
    code, out, _ = run_cli(
        capsys, "components", "--fixture", "ex64", "--degree", "182"
    )
    assert code == 0
    rep = json.loads(out)
    comps = rep["result"]["components"]
    assert len(comps) == 2
    assert all(len(c["monomials"]) == 3 for c in comps)


def test_cli_components_bound(capsys):
    code, out, _ = run_cli(
        capsys, "components", "--fixture", "ex63", "--bound", "40"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["count"] == 6
    assert rep["result"]["by_cardinality"] == {"1": 1, "2": 3, "3": 2}


def test_cli_components_needs_argument(capsys):
    code, _, err = run_cli(capsys, "components", "--fixture", "ex63")
    assert code == 2 and "error:" in err


def test_cli_components_degree_and_bound(capsys):
    code, out, err = run_cli(
        capsys,
        "components",
        "--fixture",
        "ex63",
        "--degree",
        "10,8",
        "--bound",
        "40",
    )
    assert code == 2 and out == ""
    assert "error:" in err and "not both" in err


def test_cli_complex_kinds(capsys):
    code, out, _ = run_cli(
        capsys, "complex", "--fixture", "ex64", "--bound", "600"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["ranks"] == [1, 6, 4]
    assert rep["result"]["zero_composition"] is True
    assert rep["provenance"]["kind"] == "generalized"

    code, out, _ = run_cli(
        capsys, "complex", "--fixture", "ex63", "--bound", "40", "--kind", "scarf"
    )
    rep = json.loads(out)
    assert rep["result"]["ranks"] == [1, 3, 1]

    for kind, mode, want in (
        ("strong", "strict", [1, 3, 1]),
        ("strongly", "strict", [1, 3, 1]),
        ("strong", "paper", [1, 3, 2]),
        ("strong", "paper-example", [1, 3, 2]),
    ):
        code, out, _ = run_cli(
            capsys,
            "complex",
            "--fixture",
            "ex63",
            "--bound",
            "40",
            "--kind",
            kind,
            "--mode",
            mode,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["ranks"] == want
        assert rep["provenance"]["kind"] == "strong"
        assert rep["provenance"]["mode"] in ("strict", "paper-example")

    code, _, err = run_cli(
        capsys, "complex", "--fixture", "ex63", "--bound", "40", "--kind", "x"
    )
    assert code == 2 and "error:" in err


def test_cli_bad_kind_or_mode_before_any_scan(capsys, monkeypatch):
    import latticescarf.cli as cli

    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before checking --kind and --mode")

    monkeypatch.setattr(cli, "scan_degree_classes", no_scan)
    for extra in (
        ["--kind", "bogus"],
        ["--kind", "strong", "--mode", "bogus"],
        ["--kind", "strongly", "--mode", "loose"],
        ["--kind", "scarf", "--mode", "bogus"],
        # --field and --mode read only the strong subcomplex
        ["--kind", "generalized", "--field", "fp:3"],
        ["--kind", "scarf", "--field", "q"],
        ["--field", "fp:32003"],
        ["--kind", "generalized", "--mode", "strict"],
        ["--kind", "scarf", "--mode", "paper"],
        ["--mode", "paper-example"],
    ):
        code, out, err = run_cli(
            capsys, "complex", "--fixture", "ex63", "--bound", "40", *extra
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --") and "Traceback" not in err


def test_cli_negative_bound(capsys):
    for argv in (
        ["betti", "--fixture", "ex63"],
        ["components", "--fixture", "ex63"],
        ["complex", "--fixture", "ex63"],
        ["complex", "--fixture", "ex63", "--kind", "strong"],
        ["indispensable", "--fixture", "ex63"],
        ["generators", "--fixture", "ex63"],
        ["verify", "--fixture", "ex63"],
    ):
        code, out, err = run_cli(capsys, *argv, "--bound", "-5")
        assert code == 2 and out == ""
        assert "error: --bound must be nonnegative" in err
    # bound 0 holds exactly the unit class
    code, out, _ = run_cli(capsys, "components", "--fixture", "ex63", "--bound", "0")
    assert code == 0 and json.loads(out)["result"]["count"] == 1


@pytest.mark.parametrize("command", ["betti", "generators", "verify"])
def test_cli_bound_too_large_to_pack_exits_2(capsys, command):
    """A bound whose exponents do not fit 8-byte member fields is bad
    input: one error line and exit 2 (exit 1 means a verify mismatch),
    before any search starts."""
    bound = str(10**23)
    code, out, err = run_cli(capsys, command, "--fixture", "ex61", "--bound", bound)
    assert code == 2 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("error: exponents up to ") and "8-byte fields" in err


def test_cli_indispensable_and_generators(capsys):
    code, out, _ = run_cli(
        capsys, "indispensable", "--fixture", "ex64", "--bound", "600"
    )
    assert code == 0
    rep = json.loads(out)
    assert len(rep["result"]["binomials"]) == 6

    code, out, _ = run_cli(
        capsys, "generators", "--fixture", "ex64", "--bound", "600"
    )
    rep = json.loads(out)
    assert len(rep["result"]["binomials"]) == 7
    texts = [b["binomial"] for b in rep["result"]["binomials"]]
    assert all(" - " in t for t in texts)


def test_cli_verify_fixtures(capsys):
    for name in fixture_names():
        code, out, _ = run_cli(capsys, "verify", "--fixture", name)
        assert code == 0, out
        rep = json.loads(out)
        assert rep["result"]["ok"] is True
        assert all(c["ok"] for c in rep["result"]["checks"])


VERIFY_CHECKS = {
    "ex61": [
        ("betti_totals", {"1": 4, "2": 4, "3": 1}),
        ("complex_ranks", [1, 4, 4, 1]),
        ("zero_composition", True),
        ("scarf_ranks", [1, 4, 4, 1]),
        ("scarf_equals_generalized", True),
        ("graded_ranks_match_scan", True),
        ("generator_degrees", [[3, 9], [4, 4], [6, 6], [9, 3]]),
    ],
    "ex63": [
        ("betti_totals", {"1": 4, "2": 5, "3": 2}),
        (
            "betti_degrees",
            {
                "1": [[4, 8], [6, 6], [8, 4], [10, 8]],
                "2": [[8, 10], [10, 8], [14, 16], [16, 14], [18, 12]],
                "3": [[18, 18], [20, 16]],
            },
        ),
        ("complex_ranks", [1, 3, 2]),
        ("zero_composition", True),
        ("degree2_basis_degrees", [[8, 10], [10, 8]]),
        ("scarf_ranks", [1, 3, 1]),
        ("strongly_ranks[strict]", [1, 3, 1]),
        ("strongly_ranks[paper-example]", [1, 3, 2]),
        ("indispensable_degrees", [[4, 8], [6, 6], [8, 4]]),
    ],
    "ex64": [
        ("betti_totals", {"1": 7, "2": 19, "3": 25, "4": 16, "5": 4}),
        ("beta_2_at_182", 2),
        ("complex_ranks", [1, 6, 4]),
        ("zero_composition", True),
        ("scarf_ranks", [1, 6, 2]),
        ("strongly_equals_scarf[strict]", True),
        ("strongly_equals_scarf[paper-example]", True),
        ("three_element_basic_fibers", [[169], [196]]),
        ("components_at_182", 2),
        ("max_component_cardinality", 3),
        ("indispensable_degrees", [[104], [112], [117], [126], [130], [140]]),
        ("generator_count", 7),
    ],
}


def test_cli_verify_check_list(capsys):
    """The names, order and expected values of verify's checks, and which
    of them fail below a fixture's bound."""
    for name in fixture_names():
        code, out, _ = run_cli(capsys, "verify", "--fixture", name)
        checks = json.loads(out)["result"]["checks"]
        assert [(c["name"], c["expected"]) for c in checks] == VERIFY_CHECKS[name]
    for name, bound, failing in (
        ("ex63", "18", ["betti_totals", "betti_degrees"]),
        ("ex64", "300", ["betti_totals"]),
    ):
        code, out, _ = run_cli(capsys, "verify", "--fixture", name, "--bound", bound)
        assert code == 1
        checks = json.loads(out)["result"]["checks"]
        assert [c["name"] for c in checks if not c["ok"]] == failing


def test_one_scan_per_command(capsys, monkeypatch):
    """verify and complex --kind strong read everything from one atlas."""
    import sys

    from latticescarf.homology import scan_degree_classes

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return scan_degree_classes(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("latticescarf") and "scan_degree_classes" in vars(module):
            monkeypatch.setattr(module, "scan_degree_classes", counted)
    strong = ["complex", "--fixture", "ex63", "--bound", "40", "--kind", "strong"]
    for argv in (
        ["verify", "--fixture", "ex61"],
        ["verify", "--fixture", "ex63"],
        ["verify", "--fixture", "ex64"],
        strong + ["--mode", "strict"],
        strong + ["--mode", "paper"],
    ):
        calls.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, out
        assert len(calls) == 1, (argv, len(calls))


def test_strong_complex_ranks_only_up_to_its_top_cell(capsys, monkeypatch, tmp_path):
    """complex --kind strong ranks the carried classes up to its top
    cell's value alone: 10 of ex64's 60 at bound 600, 4 of <5,...,11>'s
    29 at bound 38.  betti and verify still rank all 60 of ex64's."""
    from latticescarf import homology

    rank, ranked = homology._facet_homology, []

    def counted(facets, field):
        ranked.append(facets)
        return rank(facets, field)

    monkeypatch.setattr(homology, "_facet_homology", counted)
    spec = tmp_path / "sg.json"
    spec.write_text(json.dumps({"semigroup": [[5, 6, 7, 8, 9, 11]]}))
    strong = ["complex", "--kind", "strong"]
    for argv, want in (
        (strong + ["--fixture", "ex64", "--bound", "600"], 10),
        (strong + ["--fixture", "ex64", "--bound", "600", "--mode", "paper"], 10),
        (strong + ["--spec", str(spec), "--bound", "38"], 4),
        (["betti", "--spec", str(spec), "--bound", "38"], 29),
        (["betti", "--fixture", "ex64", "--bound", "600"], 60),
        (["verify", "--fixture", "ex64"], 60),
    ):
        ranked.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, out
        assert len(ranked) == want, (argv, len(ranked))


def test_cli_verify_merges_each_fiber_once(capsys, monkeypatch):
    """verify reads the basic components and the binomials from one
    atlas, and both read Fiber.mask_unions: each of ex64's 60 carried
    fibers gets one distinct-mask pass, not one per reader."""
    prop = Fiber.mask_unions
    reads = []

    def counted(fib):
        reads.append((fib, prop.fget(fib)))
        return reads[-1][1]

    monkeypatch.setattr(Fiber, "mask_unions", property(counted))
    code, out, _ = run_cli(capsys, "verify", "--fixture", "ex64")
    assert code == 0, out
    fibers = {id(fib) for fib, _comps in reads}
    passes = {(id(fib), id(comps)) for fib, comps in reads}
    assert len(fibers) == len(passes) == 60


def test_cli_reports_decode_only_the_carried_fibers(capsys, monkeypatch):
    """betti reads the facets alone: on ex64 it unions, reads masks from
    and decodes no member.  components reads the fibers, so the atlas
    builds them: it reads masks from and decodes its packed members once
    per carried fiber and for no other class, exactly the 60 fibers whose
    support complexes are not cones, 1 317 members.  It unions members
    only on the down-set of those fibers: 1 143 steps of 3 643 members,
    into 197 classes of cone mask 0, where a union on every class of cone
    mask 0 took 2 013 steps of 11 764 members, into 343."""
    calls = {name: [] for name in ("unpack", "masks", "step", "step_first")}

    def counted(name):
        method = getattr(MemberPacking, name)

        def wrapper(self, packed, *j):
            calls[name].append(method(self, packed, *j))
            return calls[name][-1]

        return wrapper

    for name in calls:
        monkeypatch.setattr(MemberPacking, name, counted(name))
    code, out, _ = run_cli(capsys, "betti", "--fixture", "ex64", "--bound", "600")
    assert code == 0 and json.loads(out)["result"]
    assert not any(calls.values()), {k: len(v) for k, v in calls.items()}
    code, out, _ = run_cli(capsys, "components", "--fixture", "ex64", "--bound", "600")
    assert code == 0 and json.loads(out)["result"]
    for name in ("unpack", "masks"):
        assert (len(calls[name]), sum(map(len, calls[name]))) == (60, 1317), name
    unioned = calls["step_first"]
    assert (len(unioned), sum(map(len, unioned))) == (1143, 3643)


def test_cli_reports_build_no_translation_order(capsys, monkeypatch):
    """No report reads the poset's translation order: with the translate
    test raising, components --bound, complex of every kind and verify
    print the same bytes on ex61, ex63 and ex64."""
    from latticescarf import scarf
    from latticescarf.fixtures import fixture_bound

    def raising(small, big):
        raise AssertionError("the translation order was built")

    for name in ("ex61", "ex63", "ex64"):
        scan = ["--fixture", name, "--bound", str(fixture_bound(name))]
        runs = [["components", *scan], ["verify", "--fixture", name]]
        runs += [["complex", *scan, "--kind", k] for k in ("generalized", "scarf")]
        runs += [
            ["complex", *scan, "--kind", "strong", "--mode", m]
            for m in ("strict", "paper-example")
        ]
        for argv in runs:
            want = run_cli(capsys, *argv)
            with monkeypatch.context() as patch:
                patch.setattr(scarf, "_translate_into", raising)
                assert run_cli(capsys, *argv) == want, argv
            assert want[0] == 0, argv


def test_cli_verify_builds_each_strong_subcomplex_once(capsys, monkeypatch):
    """verify builds each mode's strong subcomplex once, also when it
    checks both the ranks and the comparison with the Scarf subcomplex:
    ex63's expected values get the two comparisons for the test."""
    import latticescarf.fixtures as fixtures
    from latticescarf import cli

    build, built = cli.strongly_algebraic_subcomplex, []

    def counted(X, T, mode="strict"):
        built.append(mode)
        return build(X, T, mode=mode)

    monkeypatch.setattr(cli, "strongly_algebraic_subcomplex", counted)
    modes = ("strict", "paper-example")
    both = {"strongly_equals_scarf[%s]" % m: m == "strict" for m in modes}
    monkeypatch.setitem(fixtures.EXPECTED, "ex63", dict(fixtures.EXPECTED["ex63"], **both))
    code, out, _ = run_cli(capsys, "verify", "--fixture", "ex63")
    assert code == 0 and json.loads(out)["result"]["ok"]
    assert sorted(built) == ["paper-example", "strict"]


def test_cli_verify_unknown_fixture(capsys):
    code, _, err = run_cli(capsys, "verify", "--fixture", "nope")
    assert code == 2 and err == "error: unknown fixture 'nope' (have ex61, ex63, ex64)\n"


def test_cli_does_not_take_an_internal_key_error_for_bad_input(capsys, monkeypatch):
    """Only a ValueError means bad input (exit 2); a KeyError from inside
    the library is a fault of the program and propagates."""

    def broken(*args, **kwargs):
        raise KeyError(12345)

    monkeypatch.setattr(latticescarf.cli, "betti_scan", broken)
    with pytest.raises(KeyError):
        main(["betti", "--fixture", "ex61", "--bound", "3"])
    assert capsys.readouterr().err == ""


def test_cli_verify_detects_mismatch(capsys, monkeypatch):
    import latticescarf.fixtures as fixtures

    patched = dict(fixtures.EXPECTED)
    patched["ex61"] = dict(patched["ex61"], generator_count=5)
    monkeypatch.setitem(fixtures.EXPECTED, "ex61", patched["ex61"])
    code, out, _ = run_cli(capsys, "verify", "--fixture", "ex61")
    assert code == 1
    rep = json.loads(out)
    assert rep["result"]["ok"] is False
    bad = [c for c in rep["result"]["checks"] if not c["ok"]]
    assert bad and bad[0]["name"] == "generator_count"


def test_cli_verify_graded_check_compares_every_layer(capsys, monkeypatch):
    """graded_ranks_match_scan compares X's cells with beta_{i,b} at every
    (i, b), also in the layers where X has no cell: this lattice's complex
    is the unit cell alone, while its Betti totals are {1: 2, 2: 1}."""
    import latticescarf.fixtures as fixtures

    problem = {"name": "unit", "lattice": [[-3, 3, -2, 3], [0, -1, 1, -1]], "bound": 30}
    expected = {
        "betti_totals": {"1": 2, "2": 1},
        "complex_ranks": [1],
        "graded_ranks_match_scan": True,
    }
    monkeypatch.setitem(fixtures.BUNDLED, "unit", problem)
    monkeypatch.setitem(fixtures.EXPECTED, "unit", expected)
    code, out, _ = run_cli(capsys, "verify", "--fixture", "unit")
    assert code == 1
    checks = json.loads(out)["result"]["checks"]
    assert [c["name"] for c in checks] == list(expected)
    assert [c["name"] for c in checks if not c["ok"]] == ["graded_ranks_match_scan"]


def test_cli_verify_refuses_an_expectation_it_has_no_check_for(capsys, monkeypatch):
    """A misspelled expectation is a fault of the program, not bad input:
    verify raises RuntimeError naming it instead of skipping it."""
    import latticescarf.fixtures as fixtures

    misspelt = dict(fixtures.EXPECTED["ex63"], betti_total={"1": 4})
    monkeypatch.setitem(fixtures.EXPECTED, "ex63", misspelt)
    with pytest.raises(RuntimeError, match="betti_total,"):
        main(["verify", "--fixture", "ex63"])
    assert capsys.readouterr() == ("", "")


def test_cli_export_dot_out_is_utf8_under_the_c_locale(tmp_path):
    """--out writes UTF-8 whatever the locale, as specs are read: under
    the C locale, with no UTF-8 mode, a non-ASCII variable name still
    reaches the file."""
    spec = tmp_path / "s.json"
    spec.write_text(
        json.dumps({"semigroup": [[3, 5, 7]], "variables": ["α", "β", "γ"]}), encoding="utf-8"
    )
    out = tmp_path / "o.dot"
    src = str(pathlib.Path(latticescarf.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["export-dot", "--spec", str(spec), "--degree", "15", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "latticescarf.cli", *argv], env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr
    assert 'label="α^5"' in out.read_bytes().decode("utf-8")


def test_cli_export_dot(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "export-dot", "--fixture", "ex63", "--degree", "10,8"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["nodes"] == 4
    assert rep["result"]["edges"] == 3
    assert rep["result"]["dot"].startswith("graph fiber {")

    out_path = tmp_path / "fiber.dot"
    code, out, _ = run_cli(
        capsys,
        "export-dot",
        "--fixture",
        "ex64",
        "--degree",
        "182",
        "--out",
        str(out_path),
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["nodes"] == 6
    assert rep["result"]["edges"] == 6
    assert rep["result"]["dot"] is None
    text = out_path.read_text()
    assert text.count(" -- ") == 6
    assert text.count("[label=") == 6


def test_cli_export_dot_singleton(capsys):
    code, out, _ = run_cli(
        capsys, "export-dot", "--fixture", "ex63", "--degree", "6,0"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["nodes"] == 1
    assert rep["result"]["edges"] == 0


def test_cli_export_dot_support(capsys):
    code, out, _ = run_cli(
        capsys,
        "export-dot",
        "--fixture",
        "ex63",
        "--degree",
        "6,6",
        "--kind",
        "support",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["nodes"] == 4
    assert rep["result"]["edges"] == 2


def test_cli_export_dot_empty_fiber(capsys, tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"lattice": [[1, -1]]}))
    code, _, err = run_cli(
        capsys, "export-dot", "--spec", str(path), "--degree=-1,0"
    )
    assert code == 2 and "error:" in err


def test_cli_export_dot_unwritable_out(capsys, tmp_path):
    out_path = tmp_path / "missing" / "fiber.dot"
    code, out, err = run_cli(
        capsys,
        "export-dot",
        "--fixture",
        "ex63",
        "--degree",
        "10,8",
        "--out",
        str(out_path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write %s" % out_path)
    assert not out_path.parent.exists()


@pytest.mark.parametrize(
    "name, degree, size",
    [("ex63", "10,8", 4), ("ex64", "182", 6), ("ex64", "800", 308)],
)
def test_export_dot_gcd_matches_pairwise_gcd(name, degree, size):
    spec = fixture_problem(name)
    fib = enumerate_fiber(spec.lattice, _parse_degree(spec, degree))
    assert len(fib) == size
    dot, nodes, _edges = export_dot(fib, spec.variables, "gcd")
    assert dot == export_dot_gcd_oracle(fib, spec.variables) and nodes == size


# a DOT node line whose label is a quoted string with only \" and \\ escapes
DOT_NODE = re.compile(r'^  [nv]\d+ \[label="(?:[^"\\]|\\["\\])*"\];$')
# a DOT edge line
DOT_EDGE = re.compile(r"^  ([nv])\d+ -- \1\d+;$")


def hand_fiber(members):
    """A Fiber of the given monomials: export_dot reads only the members
    and their masks, so the class is taken over the zero lattice."""
    n = len(members[0])
    return Fiber(DegreeClass(LatticeBasis([], n=n), members[0]), members)


def sparse_fiber(seed, n=14, size=300):
    """size distinct monomials over n variables, each variable occurring
    with probability 0.2 (exponent 1 or 2)."""
    rng = random.Random(seed)
    ms = set()
    while len(ms) < size:
        ms.add(
            tuple(rng.choice((1, 2)) if rng.random() < 0.2 else 0 for _ in range(n))
        )
    return hand_fiber(sorted(ms))


def test_export_dot_gcd_matches_pairwise_gcd_on_hand_built_fibers():
    fib = sparse_fiber(3)
    masks = fib.masks
    later = [set(masks[a + 1 :]) for a in range(len(masks))]
    # many distinct masks; rows with no edge although later members exist;
    # equal masks far apart, whose rows read one selector at an offset;
    # no row that meets every later member
    assert len(set(masks)) > 200
    assert sum(not any(m & x for x in later[a]) for a, m in enumerate(masks[:-1])) > 5
    first = {}
    assert max(a - first.setdefault(m, a) for a, m in enumerate(masks)) > 30
    assert not any(all(m & x for x in later[a]) for a, m in enumerate(masks[:-1]))
    variables = ["x%d" % i for i in range(14)]
    assert export_dot(fib, variables, "gcd")[0] == export_dot_gcd_oracle(fib, variables)

    # the zero monomial: mask 0 meets nothing, and its label is 1
    zero = hand_fiber([(2, 0, 1), (1, 1, 1), (0, 2, 0), (0, 1, 0), (0, 0, 0)])
    dot = export_dot(zero, "abc", "gcd")[0]
    assert dot == export_dot_gcd_oracle(zero, "abc")
    assert '  n4 [label="1"];' in dot and "n4;" not in dot


@pytest.mark.parametrize("kind", ["gcd", "support"])
@pytest.mark.parametrize("name, degree", [("ex63", "10,8"), ("ex64", "800")])
def test_cli_export_dot_counts_match_the_drawing(capsys, name, degree, kind):
    code, out, _ = run_cli(
        capsys, "export-dot", "--fixture", name, "--degree", degree, "--kind", kind
    )
    assert code == 0
    res = json.loads(out)["result"]
    lines = res["dot"].splitlines()
    assert res["nodes"] == sum(map(bool, map(DOT_NODE.match, lines)))
    assert res["edges"] == sum(map(bool, map(DOT_EDGE.match, lines))) > 0


def test_cli_export_dot_escapes_labels(capsys, tmp_path):
    path = tmp_path / "names.json"
    names = {"lattice": [[1, -1]], "variables": ["a -- b", 'c"d']}
    path.write_text(json.dumps(names))
    for kind, nodes, edges in (("gcd", 3, 2), ("support", 2, 1)):
        code, out, _ = run_cli(
            capsys, "export-dot", "--spec", str(path), "--degree=1,1", "--kind", kind
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert (res["nodes"], res["edges"]) == (nodes, edges)
        node_lines = [line for line in res["dot"].splitlines() if "[label=" in line]
        assert len(node_lines) == nodes
        assert all(DOT_NODE.match(line) for line in node_lines), node_lines
    spec = problem_from_dict(names)
    fib = enumerate_fiber(spec.lattice, (1, 1))
    assert export_dot(fib, spec.variables)[0].splitlines()[1:4] == [
        '  n0 [label="a -- b^2"];',
        '  n1 [label="a -- b*c\\"d"];',
        '  n2 [label="c\\"d^2"];',
    ]
    slash = problem_from_dict({"lattice": [[1, -1]], "variables": ["p\\", "q"]})
    assert '  v0 [label="p\\\\"];' in export_dot(fib, slash.variables, "support")[0]


def test_export_dot_api_rejects_empty_fiber(ex63):
    fib = enumerate_fiber(ex63.lattice, (-1, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        export_dot(fib, ex63.spec.variables)


def test_export_dot_bad_kind(ex63):
    fib = enumerate_fiber(ex63.lattice, (1, 1, 0, 1, 0))
    with pytest.raises(ParseError):
        export_dot(fib, ex63.spec.variables, kind="mesh")


def test_cli_export_dot_bad_kind_before_enumerating(capsys, monkeypatch):
    import latticescarf.cli as cli

    def no_fiber(*args, **kwargs):
        raise AssertionError("enumerated a fiber before checking --kind")

    monkeypatch.setattr(cli, "enumerate_fiber", no_fiber)
    code, out, err = run_cli(
        capsys, "export-dot", "--fixture", "ex64", "--degree", "1200", "--kind", "bogus"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: --kind") and "Traceback" not in err


def test_cli_determinism(capsys):
    first = run_cli(capsys, "complex", "--fixture", "ex63", "--bound", "40")
    second = run_cli(capsys, "complex", "--fixture", "ex63", "--bound", "40")
    assert first == second


def test_cli_argparse_failures(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fiber", "--fixture", "ex63"])  # missing --degree
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["fiber", "--fixture", "ex63", "--spec", "x.json", "--degree", "0,0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_parser_built_once(capsys, monkeypatch):
    """main builds its argument parser on the first call only, and reuses
    it: an argparse error (exit 2) between two calls leaves what they print
    byte-identical."""
    import argparse

    import latticescarf.cli as cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "latticescarf":
            built.append(self)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = ("components", "--fixture", "ex63", "--degree", "10,8")
    first = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["fiber", "--fixture", "ex63"])  # missing --degree
    assert exc.value.code == 2
    assert "--degree" in capsys.readouterr().err
    second = run_cli(capsys, *argv)
    assert first[0] == 0 and first[1].startswith("{")
    assert second == first
    assert len(built) == 1


def test_cli_negative_degree_needs_equals_form(capsys, tmp_path):
    """argparse takes '-1,3,0' after a space for an option, so a degree
    whose first value is negative is written --degree=-1,3,0, as the
    --degree help of fiber, components and export-dot says."""
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"lattice": [[1, -1, 0], [0, 1, -1]]}))
    with pytest.raises(SystemExit) as exc:
        main(["fiber", "--spec", str(path), "--degree", "-1,3,0"])
    assert exc.value.code == 2
    assert "argument --degree: expected one argument" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "fiber", "--spec", str(path), "--degree=-1,3,0")
    assert code == 0 and err == ""
    rep = json.loads(out)["result"]
    assert rep["count"] == 6 and rep["degree"] == {"representative": [2, 0, 0]}
    for command in ("fiber", "components", "export-dot"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--degree=-1,3,0" in capsys.readouterr().out


def test_cli_fiber_queries_build_masks_only_where_read(capsys, monkeypatch):
    """fiber and export-dot --kind support print members alone and compute
    no support mask; export-dot --kind gcd and components --degree compute
    one per member of the 4-member fiber, under any module's binding of
    support_mask."""
    from latticescarf import cli, fibers, homology, scarf

    calls = []

    def counted(u):
        calls.append(u)
        return support_mask(u)

    for module in (fibers, homology, scarf, cli):
        monkeypatch.setattr(module, "support_mask", counted, raising=False)
    counts = {}
    for command, extra in (
        ("fiber", ()),
        ("export-dot", ("--kind", "support")),
        ("export-dot", ("--kind", "gcd")),
        ("components", ()),
    ):
        del calls[:]
        code, _, _ = run_cli(capsys, command, "--fixture", "ex63", "--degree", "10,8", *extra)
        assert code == 0
        counts[(command,) + extra] = len(calls)
    assert counts == {
        ("fiber",): 0,
        ("export-dot", "--kind", "support"): 0,
        ("export-dot", "--kind", "gcd"): 4,
        ("components",): 4,
    }


def test_run_command_unknown():
    spec = problem_from_dict(EX63)
    with pytest.raises(ParseError):
        run_command(spec, "frobnicate", {})


def test_report_provenance(capsys):
    code, out, _ = run_cli(capsys, "betti", "--fixture", "ex61", "--bound", "40")
    rep = json.loads(out)
    prov = rep["provenance"]
    assert prov["format"] == 1
    assert "version" in prov
    assert prov["functional"] == [4, 4, 4, 4]


@pytest.mark.parametrize("fixture, degree", [("ex64", "800"), ("ex63", "75,78")])
def test_cli_point_queries_match_the_benchmark_digests(capsys, fixture, degree):
    """fiber, components --degree and both export-dot kinds print, byte for
    byte, the reports whose sha256 digests perfbench/expected.json records
    for the queries workload (read here, never written)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    ops = json.loads(path.read_text())["ops"]
    for label, argv in (
        ("fiber", ["fiber"]),
        ("components", ["components"]),
        ("export-dot-gcd", ["export-dot", "--kind", "gcd"]),
        ("export-dot-support", ["export-dot", "--kind", "support"]),
    ):
        code, out, _ = run_cli(capsys, *argv, "--fixture", fixture, "--degree", degree)
        want = ops["queries/%s/%s/%s" % (fixture, degree, label)]["sha256"]
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == want, label


def _recorded_ops(workloads, expected, workload):
    """Every operation of the workload that any seed can pick: the
    fixtures and semigroups workloads run all of theirs in every pass;
    the queries workload runs 4 commands at each degree of QUERY_DEGREES,
    the random workload one lattice operation per recorded pool lattice."""
    if workload == "queries":
        return [
            op
            for name, degrees in workloads.QUERY_DEGREES.items()
            for degree in degrees
            for op in workloads.query_ops(name, degree)
        ]
    if workload == "random":
        pool = expected["random_pool"]
        indices = [p["index"] for p in pool if p["classes"] <= workloads.RANDOM_RECORD_CLASSES]
        stats = collections.Counter()
        return [workloads.random_op(i, workloads.sample_pool_lattice(i, stats)) for i in indices]
    return workloads.SETUP[workload](0, expected, collections.Counter())


@pytest.mark.parametrize("workload", ["fixtures", "semigroups", "queries", "random"])
def test_cli_reports_match_the_benchmark_digests(capsys, monkeypatch, workload):
    """Every operation of each workload prints, byte for byte, the report
    whose sha256 digest perfbench/expected.json records for it (a random
    lattice operation: its summary, with theta^2 = 0 on all four
    complexes), and every recorded operation is run."""
    workloads, expected = benchmark_workloads(monkeypatch)
    ops = _recorded_ops(workloads, expected, workload)
    recorded = [k for k in expected["ops"] if k.partition("/")[0] == workload]
    assert sorted(op.id for op in ops) == sorted(recorded)
    wrong = []
    for op in ops:
        want = expected["ops"][op.id]["sha256"]
        if op.command:
            code, out, _ = run_cli(capsys, *op.argv)
            ok = code == 0 and hashlib.sha256(out.encode()).hexdigest() == want
        else:
            summary, zero = workloads.lattice_operation(op.rows, collections.Counter())
            ok = all(zero) and workloads.digest(workloads.summary_text(summary)) == want
        if not ok:
            wrong.append(op.id)
    assert wrong == []
