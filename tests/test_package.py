"""The package surface: which names ``seqopt`` publishes and where each lives."""

import re
from pathlib import Path

import pytest

import seqopt
from seqopt import bounds, cli, numbers, oracle, render, verify

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PUBLIC = {
    bounds: [
        "BoundReport", "TailCheck", "exp_bound_holds", "h_dot", "mirrored_tail", "ocmax",
        "ocmax_row", "ratio_report", "tail_probability", "tail_threshold", "upper_ratio",
    ],
    numbers: [
        "IntPolynomial", "Mask", "SubsetLimitError", "Triangle", "explicit_value", "f_weight",
        "falling_poly", "g_weight", "poly_zeros", "rising_poly", "stirling_ref", "triangle",
        "value",
    ],
    oracle: [
        "BudgetError", "Histogram", "color_boards_count", "histogram",
        "optimization_set_bruteforce", "prefix_min_records",
    ],
}
PAIRS = [(module, name) for module, names in PUBLIC.items() for name in names]
NAMES = sorted(name for _, name in PAIRS)


def test_all_lists_the_thirty_public_names():
    assert len(NAMES) == 30
    assert sorted(seqopt.__all__) == NAMES


@pytest.mark.parametrize("module, name", PAIRS,
                         ids=[f"{module.__name__}.{name}" for module, name in PAIRS])
def test_each_name_is_its_defining_modules_object(module, name):
    assert getattr(seqopt, name) is getattr(module, name)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from seqopt import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


# The names cli takes from the stage modules that define them, for the
# benchmark tracer.  It rebinds a function wherever a module holds the very
# same object, so each must be that object, not a copy.
CLI_IMPORTS = [(verify, "run_verification"), (render, "_write")] + [
    (render, name) for name in ("render_csv", "render_json", "render_plain", "triangle_entries")]


def test_cli_all_is_main_and_the_imported_public_names():
    # cli publishes the command line alone; the imported names are attributes only.
    assert cli.__all__ == ["main"]
    namespace: dict = {}
    exec("from seqopt.cli import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ["main"]
    assert all(hasattr(cli, name) for _, name in CLI_IMPORTS)


@pytest.mark.parametrize("module, name", CLI_IMPORTS,
                         ids=[f"{module.__name__}.{name}" for module, name in CLI_IMPORTS])
def test_cli_binds_its_imports_to_the_defining_modules_object(module, name):
    assert getattr(cli, name) is getattr(module, name)
    assert getattr(module, name).__module__ == module.__name__


def test_version_matches_pyproject():
    match = re.search(r'^version\s*=\s*"([^"]+)"', PYPROJECT.read_text(), re.MULTILINE)
    assert match and seqopt.__version__ == match.group(1)


STIRLING = numbers.Mask.stirling()
N_TAKERS = {
    "numbers.explicit_row": lambda n: numbers.explicit_row(STIRLING, n),
    "numbers.rising_poly": lambda n: numbers.rising_poly(STIRLING, n),
    "numbers.poly_zeros": lambda n: numbers.poly_zeros(STIRLING, n),
    "bounds.ocmax": lambda n: bounds.ocmax(STIRLING, n, 1),
    "bounds.tail_probability": lambda n: bounds.tail_probability(STIRLING, n, 1),
    "oracle.histogram": lambda n: oracle.histogram(STIRLING, n),
}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("name", sorted(N_TAKERS))
def test_row_functions_refuse_n_below_one(name, n):
    with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
        N_TAKERS[name](n)
