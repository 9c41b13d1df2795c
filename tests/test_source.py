import ast
import pathlib

import latticescarf


def package_modules():
    package = pathlib.Path(latticescarf.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) >= 8
    return [(p, ast.parse(p.read_text(), filename=str(p))) for p in modules]


def test_library_has_no_assert_statements():
    """Invariants are explicit checks: `python -O` strips `assert`."""
    found = []
    for path, tree in package_modules():
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_public_names_resolve_and_are_sorted():
    names = latticescarf.__all__
    assert names == sorted(names) and len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(latticescarf, name)]
    assert missing == []


def test_coset_key_format_stays_in_lattice_core():
    """Only lattice_core reads the Hermite form behind the coset keys."""
    found = []
    for path, tree in package_modules():
        if path.name != "lattice_core.py":
            found += [
                "%s:%d" % (path.name, node.lineno)
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in ("_hnf", "_pivots")
            ]
    assert found == []
