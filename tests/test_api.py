"""Public API tests: the error set, its codes, the exported names and the module layering."""

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import ftcircles
from ftcircles import errors, svg

PACKAGE_DIR = Path(ftcircles.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

REMOVED_NAMES = (
    "CalledOnAbsorbed",
    "DegenerateAngles",
    "GRID_CELLS_DEFAULT",
    "GeometryPreconditionViolated",
    "MissingRatio",
    "REFINE_ITERS_DEFAULT",
    "StepOutOfRange",
    "StepTooSmall",
    "StepTooLarge",
    "angle_at",
    "default_scale",
    "default_schedule",
    "directional_derivative_to_circle",
    "distance_to_circle",
    "distances_to_circles",
    "finite_difference_gradient",
    "sector_decomposition",
    "transfer_residuals",
)

# (function, keywords it no longer takes)
REMOVED_KEYWORDS = (
    (ftcircles.shifted_configuration, ("base_point",)),
    (ftcircles.plasticity_n, ("strict",)),
    (ftcircles.oracle_minimize, ("grid_cells", "refine_iters")),
    (ftcircles.random_floating_config, ("tolerance", "box", "min_separation", "distance_mode")),
    (ftcircles.random_dominated_config, ("radius", "distance_mode")),
    (ftcircles.regular_polygon_config, ("weight", "distance_mode")),
    (ftcircles.cosine_system_weights, ("atol",)),
    (ftcircles.solve, ("max_iters", "initial")),
    (svg.render_svg, ("size",)),
    (ftcircles.SolutionInsideDisk, ("message",)),
)


# Where ``isfinite`` may appear outside errors.py, whose checked_number and
# checked_numbers decide for every number argument: the per-object checks of
# Point2 and Circle, which stay inline because a call per object costs about
# 120 ns on the large-n path.
ISFINITE_SITES = {
    "geometry.Point2.__init__",
    "geometry.Circle.__init__",
}


def _isfinite_scopes(tree: ast.Module) -> set[str]:
    """Dotted names of the classes and functions of ``tree`` that use ``isfinite``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "isfinite") or (
                isinstance(child, ast.Name) and child.id == "isfinite"
            ):
                found.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def _error_classes():
    """Every FTCirclesError subclass defined in ``ftcircles.errors``."""
    return [
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type)
        and issubclass(cls, errors.FTCirclesError)
        and cls is not errors.FTCirclesError
    ]


def _raised_names() -> set[str]:
    """Names of the exceptions raised anywhere in the package source."""
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def _readme_codes() -> list[str]:
    """First-column codes of the README's error code table."""
    lines = README.read_text().splitlines()
    start = lines.index("| code | commands that can emit it | exit |")
    codes = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        codes.append(re.match(r"\| `([a-z_]+)` \|", line).group(1))
    return codes


class TestErrors:
    def test_codes_are_unique(self):
        codes = [cls.code for cls in _error_classes()]
        assert len(codes) == len(set(codes)), codes
        assert errors.FTCirclesError.code not in codes

    def test_every_error_is_raised(self):
        raised = _raised_names()
        unraised = [cls.__name__ for cls in _error_classes() if cls.__name__ not in raised]
        assert not unraised, f"never raised in {PACKAGE_DIR}: {unraised}"

    def test_every_error_is_exported(self):
        for cls in [errors.FTCirclesError, *_error_classes()]:
            assert getattr(ftcircles, cls.__name__) is cls

    def test_readme_table_lists_exactly_the_codes(self):
        table = _readme_codes()
        assert len(table) == len(set(table))
        assert set(table) == {cls.code for cls in _error_classes()}


class TestExports:
    def test_all_is_unique_and_resolves(self):
        assert len(ftcircles.__all__) == len(set(ftcircles.__all__))
        for name in ftcircles.__all__:
            assert hasattr(ftcircles, name), name

    def test_all_is_every_public_name(self):
        public = {
            name
            for name, value in vars(ftcircles).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert public == set(ftcircles.__all__)

    def test_removed_names_are_gone(self):
        modules = [ftcircles] + [
            importlib.import_module(f"ftcircles.{path.stem}")
            for path in PACKAGE_DIR.glob("*.py")
            if path.stem != "__init__"
        ]
        for module in modules:
            for name in REMOVED_NAMES:
                assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert not hasattr(ftcircles.SectorAngles, "from_matrix")
        assert not hasattr(ftcircles.SectorAngles, "matrix")
        assert not hasattr(ftcircles.SectorAngles, "signed_sin")
        assert not hasattr(ftcircles.SectorAngles, "angle")
        assert not hasattr(ftcircles.PlasticityCoefficients, "apply")

    def test_removed_keywords_are_gone(self):
        for func, keywords in REMOVED_KEYWORDS:
            params = inspect.signature(func).parameters
            assert not set(keywords) & set(params), func.__name__
        result = inspect.signature(svg.render_svg).parameters["result"]
        assert result.default is inspect.Parameter.empty


class TestLayering:
    def test_no_module_imports_a_private_name_of_a_sibling(self):
        private = []
        for path in sorted(PACKAGE_DIR.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if node.level == 0 and not (node.module or "").startswith("ftcircles"):
                    continue
                private += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
        assert not private, private

    def test_number_arguments_are_checked_in_errors_only(self):
        sites = set()
        for path in sorted(PACKAGE_DIR.glob("*.py")):
            if path.name != "errors.py":
                tree = ast.parse(path.read_text(), filename=str(path))
                sites |= {f"{path.stem}.{scope}" for scope in _isfinite_scopes(tree)}
        assert sites == ISFINITE_SITES
