import ast
import importlib
import pathlib

import latticescarf


def package_modules():
    package = pathlib.Path(latticescarf.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) >= 8
    return [(p, ast.parse(p.read_text(), filename=str(p))) for p in modules]


def test_modules_parse_as_python_3_10():
    """pyproject.toml declares requires-python >= 3.10, so no module may
    use syntax that a later version introduced (except*, type
    statements, type parameters, ...)."""
    for path, _tree in package_modules():
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


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
    """Only lattice_core reads the Hermite forms behind the coset keys and
    the packed torsion digits, and the packing itself; the scan
    reads only the packing's moves and its torsion digit mask, low."""
    from latticescarf.lattice_core import CosetPacking, LatticeBasis, ScannedClasses

    private = {name for name in vars(LatticeBasis([(1, -1, 0)])) if name.startswith("_")}
    assert {"_hnf", "_pivots", "_free", "_torsion"} <= private
    private |= set(CosetPacking.__slots__) - {"low"}
    private |= set(ScannedClasses.__slots__)
    found = []
    for path, tree in package_modules():
        if path.name != "lattice_core.py":
            found += [
                "%s:%d %s" % (path.name, node.lineno, node.attr)
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in private
            ]
    assert found == []


def test_member_packing_stays_in_the_scan():
    """Only fibers, which defines it, and homology, whose scan builds its
    carried unions in it, name MemberPacking: every Fiber holds tuples,
    so no reader sees the packed format."""
    found = sorted(
        {
            path.name
            for path, tree in package_modules()
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "MemberPacking")
            or (isinstance(node, ast.Attribute) and node.attr == "MemberPacking")
            or (isinstance(node, ast.alias) and node.name == "MemberPacking")
            or (isinstance(node, ast.ClassDef) and node.name == "MemberPacking")
        }
    )
    assert found == ["fibers.py", "homology.py"]


def test_betti_reads_no_fiber():
    """A Betti table is the homology of the facets alone: betti_scan and
    betti_table read no atlas.fibers, whose first read unions and
    decodes every carried fiber."""
    (tree,) = [tree for path, tree in package_modules() if path.name == "homology.py"]
    functions = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("betti_scan", "betti_table")
    }
    assert len(functions) == 2
    found = [
        "%s:%d" % (name, node.lineno)
        for name, f in functions.items()
        for node in ast.walk(f)
        if isinstance(node, ast.Attribute) and node.attr in ("fibers", "_fibers")
    ]
    assert found == []


def test_modules_import_no_private_names():
    """Package modules reach one another through public names: an
    underscore name stays in its module, except _same_lattice, the one
    lattice comparison every module shares.  Dunders (__version__) are
    public."""
    found = []
    for path, tree in package_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").startswith("latticescarf")):
                continue
            found += [
                "%s:%d %s" % (path.name, node.lineno, alias.name)
                for alias in node.names
                if alias.name.startswith("_")
                and not alias.name.startswith("__")
                and alias.name != "_same_lattice"
            ]
    assert found == []


def test_modules_use_every_name_they_import():
    """Each package module uses every name it imports, so a removal
    leaves no stale import behind; __init__ imports to re-export."""
    found = []
    for path, tree in package_modules():
        if path.name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    "%s:%d %s" % (path.name, node.lineno, alias.name)
                    for alias in node.names
                    if (alias.asname or alias.name).partition(".")[0] not in used
                ]
    assert found == []


LAYERS = ("linalg", "lattice_core", "fibers", "homology", "scarf")


def package_imports(tree):
    """(line, name) for each import of the package in tree, at any depth:
    name is the module imported from, without the package prefix, or for
    `from <package> import a` the name a itself (a module or a package
    attribute)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.partition(".")[0] == "latticescarf"]
            yield from ((node.lineno, name.partition(".")[2]) for name in names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                package, _, module = module.partition(".")
                if package != "latticescarf":
                    continue
            if module:
                yield node.lineno, module
            else:
                yield from ((node.lineno, alias.name) for alias in node.names)


def test_modules_import_only_lower_layers():
    """The library is layered linalg < lattice_core < fibers < homology <
    scarf: each of these imports package modules only from below it,
    function-level imports included.  cli and fixtures are the front end
    and are exempt."""
    found = []
    for path, tree in package_modules():
        if path.stem not in LAYERS:
            continue
        below = LAYERS[: LAYERS.index(path.stem)]
        found += [
            "%s:%d %s" % (path.name, line, name)
            for line, name in package_imports(tree)
            if name not in below
        ]
    assert found == []


def test_library_layers_define_no_dead_code():
    """Every top-level function and class of the library layers is public
    (in __all__) or read somewhere in the package outside its own
    definition, so a helper goes with its last caller.  cli and fixtures
    are the front end and are exempt."""
    modules = package_modules()
    statements = []
    for _path, tree in modules:
        for node in tree.body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            statements.append((node, names))
    public = set(latticescarf.__all__)
    found = [
        "%s:%d %s" % (path.name, node.lineno, node.name)
        for path, tree in modules
        if path.stem in LAYERS
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in public
        and not any(node.name in names for other, names in statements if other is not node)
    ]
    assert found == []


def test_only_point_queries_enumerate_fibers():
    """In the library layers only fibers.class_leq and
    scarf.in_generalized_scarf read enumerate_fiber: each is a point
    query, defined by one fiber that no caller holds.  Every other reader
    takes the Fiber or the Atlas it reads, so none enumerates on its
    caller's behalf.  Imports and the definition itself do not count."""
    found = set()
    for path, tree in package_modules():
        if path.stem not in LAYERS:
            continue
        for top in tree.body:
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == "enumerate_fiber") or (
                    isinstance(node, ast.Attribute) and node.attr == "enumerate_fiber"
                ):
                    found.add("%s.%s" % (path.stem, getattr(top, "name", top.lineno)))
    assert found == {"fibers.class_leq", "scarf.in_generalized_scarf"}


def decorator_name(node):
    """The name a decorator calls: cache for @cache, @functools.cache and
    @lru_cache(maxsize=8) alike (lru_cache there)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_library_layers_keep_no_hidden_caches():
    """No top-level function of the library layers, nor a method of a
    top-level class, is memoized by cache or lru_cache: a result that
    outlives its call hides work from the measurements and state from
    the tests.  Function-local closures (the scan's ups and downs) live
    only as long as their call and are allowed; cli and fixtures are the
    front end and are exempt."""
    found = []
    for path, tree in package_modules():
        if path.stem not in LAYERS:
            continue
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                functions += [f for f in node.body if isinstance(f, ast.FunctionDef)]
        found += [
            "%s:%d %s" % (path.name, f.lineno, f.name)
            for f in functions
            if any(decorator_name(d) in ("cache", "lru_cache") for d in f.decorator_list)
        ]
    assert found == []


def resolves(module, name):
    """Does `from module import name` succeed: an attribute of the module,
    or a submodule of a package?"""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:
        importlib.import_module("%s.%s" % (module, name))
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_import_surface_resolves():
    """The benchmark harness (perfbench/) is kept apart from the package,
    so a package name it reads that goes away fails every benchmark run.
    Its run.py and workloads.py are parsed, not run: every package module
    they import, every name they import from the package, and every
    homology., lattice_core. and scarf. attribute that lattice_operation
    reads must resolve."""
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    modules, names = set(), set()
    for file in ("run.py", "workloads.py"):
        path = perfbench / file
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules |= {
                    a.name for a in node.names if a.name.partition(".")[0] == "latticescarf"
                }
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").partition(".")[0] == "latticescarf":
                    names |= {(node.module, a.name) for a in node.names}
            elif isinstance(node, ast.FunctionDef) and node.name == "lattice_operation":
                names |= {
                    ("latticescarf." + n.value.id, n.attr)
                    for n in ast.walk(node)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name)
                    and n.value.id in ("homology", "lattice_core", "scarf")
                }
    assert "latticescarf.cli" in modules and len(names) > 15, (modules, names)
    for module in modules:
        importlib.import_module(module)
    missing = sorted("%s.%s" % pair for pair in names if not resolves(*pair))
    assert missing == []


def test_oracle_imports_no_package_ranks():
    """The face-tuple oracle (complex_homology_dims, and the Betti oracle
    that reads it) ranks its boundary maps with its own dense routines, so
    tests/helpers.py imports no rank routine from the package, nor linalg
    itself, whose attributes would give it one."""
    path = pathlib.Path(__file__).with_name("helpers.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("latticescarf"):
            imported += [
                (node.lineno, a.name)
                for a in node.names
                if a.name.startswith("rank") or a.name == "linalg"
            ]
        elif isinstance(node, ast.Import):
            imported += [(node.lineno, a.name) for a in node.names if a.name == "latticescarf.linalg"]
    assert imported == []
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"rank_rational", "rank_mod_p"} <= defined
