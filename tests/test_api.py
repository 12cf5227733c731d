"""Public API tests: the error set, its codes, and the exported names."""

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
    "MissingRatio",
    "StepOutOfRange",
    "StepTooSmall",
    "StepTooLarge",
    "angle_at",
    "default_scale",
    "default_schedule",
    "distance_to_circle",
    "sector_decomposition",
    "transfer_residuals",
)

# (function, keywords it no longer takes)
REMOVED_KEYWORDS = (
    (ftcircles.shifted_configuration, ("base_point",)),
    (ftcircles.plasticity_n, ("strict",)),
    (ftcircles.finite_difference_gradient, ("h",)),
    (ftcircles.directional_derivative_to_circle, ("h",)),
    (ftcircles.random_floating_config, ("tolerance", "box", "min_separation")),
    (ftcircles.random_dominated_config, ("radius",)),
    (ftcircles.regular_polygon_config, ("weight",)),
    (ftcircles.cosine_system_weights, ("atol",)),
    (svg.render_svg, ("size",)),
    (ftcircles.SolutionInsideDisk, ("message",)),
)


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

    def test_removed_keywords_are_gone(self):
        for func, keywords in REMOVED_KEYWORDS:
            params = inspect.signature(func).parameters
            assert not set(keywords) & set(params), func.__name__
        result = inspect.signature(svg.render_svg).parameters["result"]
        assert result.default is inspect.Parameter.empty
