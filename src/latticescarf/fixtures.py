"""Bundled example problems and their reference values.

Three small grading semigroups exercise every feature: ex61 (a twisted
cubic-like curve in four variables whose Scarf complex already resolves),
ex63 (five variables, where the generalized complex strictly contains the
algebraic Scarf subcomplex), and ex64 (two intertwined numerical
semigroups on six variables).  The expectation tables below are what
`latticescarf verify --fixture NAME` checks, stored as its report prints
them, so verify compares them unchanged.  The test suite pins verify's
checks through its report; only test_cli_verify_detects_mismatch patches
these tables.
"""

BUNDLED = {
    "ex61": {
        "name": "ex61",
        "variables": ["a", "b", "c", "d"],
        "semigroup": [[4, 3, 1, 0], [0, 1, 3, 4]],
        "bound": 40,
    },
    "ex63": {
        "name": "ex63",
        "variables": ["a", "b", "c", "d", "e"],
        "semigroup": [[6, 4, 2, 0, 5], [0, 2, 4, 6, 4]],
        "bound": 40,
    },
    "ex64": {
        "name": "ex64",
        "variables": ["a", "b", "c", "d", "e", "f"],
        "semigroup": [[39, 52, 65, 42, 56, 70]],
        "bound": 600,
    },
}

# Reference values, keyed by fixture, in the form verify prints them:
# degrees are semigroup degrees, degree lists are sorted, and homological
# degrees are string keys.
EXPECTED = {
    "ex61": {
        "betti_totals": {"1": 4, "2": 4, "3": 1},
        "generator_degrees": [[3, 9], [4, 4], [6, 6], [9, 3]],
        "complex_ranks": [1, 4, 4, 1],
        "scarf_ranks": [1, 4, 4, 1],
        "scarf_equals_generalized": True,
        "graded_ranks_match_scan": True,
        "zero_composition": True,
    },
    "ex63": {
        "betti_totals": {"1": 4, "2": 5, "3": 2},
        "betti_degrees": {
            "1": [[4, 8], [6, 6], [8, 4], [10, 8]],
            "2": [[8, 10], [10, 8], [14, 16], [16, 14], [18, 12]],
            "3": [[18, 18], [20, 16]],
        },
        "complex_ranks": [1, 3, 2],
        "degree2_basis_degrees": [[8, 10], [10, 8]],
        "indispensable_degrees": [[4, 8], [6, 6], [8, 4]],
        "scarf_ranks": [1, 3, 1],
        "strongly_ranks[strict]": [1, 3, 1],
        "strongly_ranks[paper-example]": [1, 3, 2],
        "zero_composition": True,
    },
    "ex64": {
        "betti_totals": {"1": 7, "2": 19, "3": 25, "4": 16, "5": 4},
        "beta_2_at_182": 2,
        "complex_ranks": [1, 6, 4],
        "three_element_basic_fibers": [[169], [196]],
        "components_at_182": 2,
        "max_component_cardinality": 3,
        "scarf_ranks": [1, 6, 2],
        "strongly_equals_scarf[strict]": True,
        "strongly_equals_scarf[paper-example]": True,
        "indispensable_degrees": [[104], [112], [117], [126], [130], [140]],
        "generator_count": 7,
        "zero_composition": True,
    },
}


def fixture_names():
    return sorted(BUNDLED)


def fixture_problem(name):
    """The bundled problem as a parsed ProblemSpec."""
    from .cli import problem_from_dict

    if name not in BUNDLED:
        raise KeyError("unknown fixture %r (have %s)" % (name, ", ".join(fixture_names())))
    d = dict(BUNDLED[name])
    d.pop("bound")
    return problem_from_dict(d)


def fixture_bound(name):
    return BUNDLED[name]["bound"]
