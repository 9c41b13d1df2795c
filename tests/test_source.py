import ast
import pathlib

import latticescarf


def test_library_has_no_assert_statements():
    """Invariants are explicit checks: `python -O` strips `assert`."""
    package = pathlib.Path(latticescarf.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) >= 8
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
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
