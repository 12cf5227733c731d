"""One rejection table for the number arguments of the library and the CLI.

Every entry point below checks its number arguments with
``errors.checked_number`` or ``errors.checked_numbers``: a number is what
``math.isfinite`` accepts, so a numeric string is rejected too, and the
message names the argument and its index. Each entry point keeps its own
error class.
"""

import math

import pytest

from ftcircles import (
    Circle,
    Configuration,
    InvalidConfiguration,
    Point2,
    PreconditionViolated,
    SectorAngles,
    ShiftedConfigInvalid,
    angles_from_weights,
    compose_rays,
    directional_derivative_to_circle,
    evolve_type_a,
    evolve_type_b,
    plasticity_n,
    random_floating_config,
    regular_polygon_config,
    shifted_configuration,
    solve,
)
from ftcircles.cli import main
from ftcircles.scene import dump_json, scene_dict

UNIT_TRIANGLE = (
    Circle(Point2(0.0, 0.0), 0.1),
    Circle(Point2(2.0, 0.0), 0.1),
    Circle(Point2(0.0, 2.0), 0.1),
)
PENTAGON = regular_polygon_config(5, circumradius=2.0, radius=0.2)
# absorbed at circle 0, so a solve would raise PreconditionViolated: the
# shifted_configuration rows also show that it checks before it solves
ABSORBED = Configuration(UNIT_TRIANGLE, (10.0, 1.0, 1.0))
ANGLES = SectorAngles.from_result(solve(random_floating_config(5, seed=5)))
UNIT = Circle(Point2(0.0, 0.0), 1.0)

# entry point -> (call with the bad value v as one argument, error, message for v)
ENTRIES = {
    "Configuration weights": (
        lambda v: Configuration(UNIT_TRIANGLE, (1.0, v, 1.0)),
        InvalidConfiguration,
        "weight 1 must be positive and finite, got {!r}",
    ),
    "Configuration tolerance": (
        lambda v: Configuration(UNIT_TRIANGLE, (1.0, 1.0, 1.0), v),
        InvalidConfiguration,
        "tolerance must be positive and finite, got {!r}",
    ),
    "SectorAngles": (
        lambda v: SectorAngles([0.0, v, 2.0]),
        InvalidConfiguration,
        "ray azimuth 1 must be finite, got {!r}",
    ),
    "plasticity_n free_ratios": (
        lambda v: plasticity_n(ANGLES, [0.5, v]),
        InvalidConfiguration,
        "free ratio 1 must be finite, got {!r}",
    ),
    "plasticity_n total": (
        lambda v: plasticity_n(ANGLES, [0.5, 0.5], total=v),
        InvalidConfiguration,
        "total must be finite, got {!r}",
    ),
    "shifted_configuration radial_shifts": (
        lambda v: shifted_configuration(ABSORBED, [0.0, v, 0.0]),
        ShiftedConfigInvalid,
        "shift 1 must be finite, got {!r}",
    ),
    "shifted_configuration new_radii": (
        lambda v: shifted_configuration(ABSORBED, [0.0] * 3, new_radii=[0.01, v, 0.01]),
        ShiftedConfigInvalid,
        "radius 1 must be positive and finite, got {!r}",
    ),
    "compose_rays w_a": (
        lambda v: compose_rays(v, [1.0, 0.0], 1.0, [0.0, 1.0]),
        InvalidConfiguration,
        "w_a must be finite, got {!r}",
    ),
    "compose_rays w_b": (
        lambda v: compose_rays(1.0, [1.0, 0.0], v, [0.0, 1.0]),
        InvalidConfiguration,
        "w_b must be finite, got {!r}",
    ),
    "compose_rays dir_a": (
        lambda v: compose_rays(1.0, [1.0, v], 1.0, [0.0, 1.0]),
        InvalidConfiguration,
        "dir_a component 1 must be finite, got {!r}",
    ),
    "compose_rays dir_b": (
        lambda v: compose_rays(1.0, [1.0, 0.0], 1.0, [v, 1.0]),
        InvalidConfiguration,
        "dir_b component 0 must be finite, got {!r}",
    ),
    "evolve_type_a increments": (
        lambda v: evolve_type_a(PENTAGON, increments=[(0.01, 0.01), (0.0, v)]),
        InvalidConfiguration,
        "schedule entry 1 increment 1 must be finite, got {!r}",
    ),
    "evolve_type_b schedule": (
        lambda v: evolve_type_b(PENTAGON, schedule=[0.01, v]),
        InvalidConfiguration,
        "schedule entry 1 must be finite, got {!r}",
    ),
    "evolve_type_a scale": (
        lambda v: evolve_type_a(PENTAGON, scale=v, steps=2),
        InvalidConfiguration,
        "radius scale must be positive and finite, got {!r}",
    ),
    "evolve_type_b scale": (
        lambda v: evolve_type_b(PENTAGON, scale=v, steps=2),
        InvalidConfiguration,
        "radius scale must be positive and finite, got {!r}",
    ),
    "angles_from_weights": (
        lambda v: angles_from_weights(3.0, v, 5.0),
        InvalidConfiguration,
        "weight 2 must be positive and finite, got {!r}",
    ),
    "directional_derivative_to_circle": (
        lambda v: directional_derivative_to_circle(UNIT, Point2(3.0, 0.0), [1.0, v]),
        PreconditionViolated,
        "direction component 1 must be finite, got {!r}",
    ),
}

NOT_NUMBERS = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "10**400": 10**400,
    "numeric string": "1",
    "text": "a",
    "None": None,
    "list": [0.5],
}
NOT_POSITIVE = {"0": 0, "-1": -1}
# None selects the default radius scale
NONE_ALLOWED = {"evolve_type_a scale", "evolve_type_b scale"}

# command -> (argv with the bad option value v, message for float(v))
CLI_ENTRIES = {
    "plasticity --total": (
        lambda paths, v: ["plasticity", paths["pentagon"], f"--total={v}"],
        "--total must be positive and finite, got {!r}",
    ),
    "plasticity --free": (
        lambda paths, v: ["plasticity", paths["pentagon"], "--free", f"w4=1.0,w5={v}"],
        "--free w5 must be finite, got {!r}",
    ),
    "verify-geometric --tol": (
        lambda paths, v: [
            "verify-geometric", paths["triangle"], "--shifts", "0,0,0", f"--tol={v}"
        ],
        "--tol must be positive and finite, got {!r}",
    ),
    "verify-geometric --shifts": (
        lambda paths, v: ["verify-geometric", paths["triangle"], "--shifts", f"0,{v},0"],
        "--shifts value 1 must be finite, got {!r}",
    ),
}

# a command line option is a string; float() parses these without error
CLI_NOT_NUMBERS = {"nan": "nan", "inf": "inf", "-inf": "-inf", "1e400": "1e400"}
CLI_NOT_POSITIVE = {"0": "0", "-1": "-1"}

# (call, error, message) for a wrong count of values, or a value that is not a sequence
COUNTS = {
    "Configuration weights short": (
        lambda: Configuration(UNIT_TRIANGLE, (1.0, 1.0)),
        InvalidConfiguration,
        "expected 3 weights, got 2",
    ),
    "Configuration weights long": (
        lambda: Configuration(UNIT_TRIANGLE, (1.0,) * 4),
        InvalidConfiguration,
        "expected 3 weights, got 4",
    ),
    "Configuration weights scalar": (
        lambda: Configuration(UNIT_TRIANGLE, 3),
        InvalidConfiguration,
        "expected 3 weights, got 3",
    ),
    "plasticity_n short": (
        lambda: plasticity_n(ANGLES, [0.5]),
        InvalidConfiguration,
        "expected 2 free ratios, got 1",
    ),
    "plasticity_n long": (
        lambda: plasticity_n(ANGLES, [0.5] * 3),
        InvalidConfiguration,
        "expected 2 free ratios, got 3",
    ),
    "plasticity_n scalar": (
        lambda: plasticity_n(ANGLES, 0.5),
        InvalidConfiguration,
        "expected 2 free ratios, got 0.5",
    ),
    "shifted_configuration shifts": (
        lambda: shifted_configuration(ABSORBED, [0.0] * 2),
        ShiftedConfigInvalid,
        "expected 3 shifts, got 2",
    ),
    "shifted_configuration radii short": (
        lambda: shifted_configuration(ABSORBED, [0.0] * 3, new_radii=[0.01] * 2),
        ShiftedConfigInvalid,
        "expected 3 radii, got 2",
    ),
    "shifted_configuration radii long": (
        lambda: shifted_configuration(ABSORBED, [0.0] * 3, new_radii=[0.01] * 4),
        ShiftedConfigInvalid,
        "expected 3 radii, got 4",
    ),
    "compose_rays dir_a long": (
        lambda: compose_rays(1.0, [1.0, 0.0, 0.0], 1.0, [0.0, 1.0]),
        InvalidConfiguration,
        "expected 2 dir_a components, got 3",
    ),
    "compose_rays dir_b short": (
        lambda: compose_rays(1.0, [1.0, 0.0], 1.0, [0.0]),
        InvalidConfiguration,
        "expected 2 dir_b components, got 1",
    ),
    "compose_rays dir_a scalar": (
        lambda: compose_rays(1.0, 1.0, 1.0, [0.0, 1.0]),
        InvalidConfiguration,
        "expected 2 dir_a components, got 1.0",
    ),
    "evolve_type_a entry short": (
        lambda: evolve_type_a(PENTAGON, increments=[(0.1,)]),
        InvalidConfiguration,
        "expected 2 increments in schedule entry 0, got 1",
    ),
    "evolve_type_a entry long": (
        lambda: evolve_type_a(PENTAGON, increments=[(0.1, 0.1), (0.1, 0.1, 0.1)]),
        InvalidConfiguration,
        "expected 2 increments in schedule entry 1, got 3",
    ),
    "evolve_type_a entry scalar": (
        lambda: evolve_type_a(PENTAGON, increments=[0.1]),
        InvalidConfiguration,
        "expected 2 increments in schedule entry 0, got 0.1",
    ),
    "direction long": (
        lambda: directional_derivative_to_circle(UNIT, Point2(3.0, 0.0), [1.0, 0.0, 0.0]),
        PreconditionViolated,
        "expected 2 direction components, got 3",
    ),
    "direction short": (
        lambda: directional_derivative_to_circle(UNIT, Point2(3.0, 0.0), [1.0]),
        PreconditionViolated,
        "expected 2 direction components, got 1",
    ),
    "direction scalar": (
        lambda: directional_derivative_to_circle(UNIT, Point2(3.0, 0.0), 1.0),
        PreconditionViolated,
        "expected 2 direction components, got 1.0",
    ),
}


def _cases(entries, not_numbers, not_positive):
    """One param per entry and bad value; positive arguments also get 0 and -1."""
    for name, (*call, message) in entries.items():
        values = {**not_numbers, **not_positive} if "positive" in message else not_numbers
        for value_id, value in values.items():
            if value is None and name in NONE_ALLOWED:
                continue
            yield pytest.param(*call, message, value, id=f"{name}-{value_id}")


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenes")
    out = {}
    for name, config in (("pentagon", PENTAGON), ("triangle", random_floating_config(3, 0))):
        out[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(dump_json(scene_dict(config)))
    return out


@pytest.mark.parametrize("call, error, message, value", _cases(ENTRIES, NOT_NUMBERS, NOT_POSITIVE))
def test_library_rejects_what_is_not_a_number(call, error, message, value):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message.format(value)


@pytest.mark.parametrize(
    "argv, message, value", _cases(CLI_ENTRIES, CLI_NOT_NUMBERS, CLI_NOT_POSITIVE)
)
def test_cli_rejects_what_is_not_a_number(paths, argv, message, value, capsys):
    assert main(argv(paths, value)) == 1
    assert capsys.readouterr().out == f"ERROR:invalid_scene:{message.format(float(value))}\n"


@pytest.mark.parametrize("call, error, message", COUNTS.values(), ids=list(COUNTS))
def test_wrong_count_is_rejected(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
