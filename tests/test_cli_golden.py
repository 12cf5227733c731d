"""`ftcircles` output on the demo scenes, pinned byte for byte.

Each scene in ``demos/scenes`` has these golden files in ``tests/cli_golden``:
the ``solve`` listing (``<scene>.solve.out``), its ``--json`` output
(``<scene>.solve-json.out``) and ``--svg`` file (``<scene>.solve.svg``), the
``oracle`` listing (``<scene>.oracle.out``), the ``check`` listing
(``<scene>.check.out``), and the ``inverse`` listing of the scene
(``<scene>.inverse.out``) and of its solve output, which is a scene with a
point (``<scene>.inverse-point.out``). The scenes with n >= 4 also pin the
``plasticity`` listing (``<scene>.plasticity.out``), and the five-circle
scene pins ``evolve --type A`` with its ``--csv`` file
(``<scene>.evolve-a.out``, ``<scene>.evolve-a.csv``) and ``evolve --type B``
(``<scene>.evolve-b.out``).
``PYTHONPATH=src python3 tests/test_cli_golden.py`` rewrites them from the
current code.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from ftcircles.cli import main

GOLDEN = Path(__file__).with_name("cli_golden")
SCENES = sorted((Path(__file__).resolve().parents[1] / "demos" / "scenes").glob("*.json"))
PLASTICITY_SCENES = [scene for scene in SCENES if scene.stem in ("pentagon", "random4")]
EVOLVE_SCENES = [scene for scene in SCENES if scene.stem == "pentagon"]


def _run(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode()


def solve_outputs(scene: Path, tmp: Path) -> dict[str, bytes]:
    """Golden file name -> bytes that ``ftcircles solve`` writes for the scene."""
    svg = tmp / "out.svg"
    _run(["solve", str(scene), "--svg", str(svg)])
    return {
        f"{scene.stem}.solve.out": _run(["solve", str(scene)]),
        f"{scene.stem}.solve-json.out": _run(["solve", str(scene), "--json"]),
        f"{scene.stem}.solve.svg": svg.read_bytes(),
    }


def oracle_outputs(scene: Path) -> dict[str, bytes]:
    """Golden file name -> bytes that ``ftcircles oracle`` writes for the scene."""
    return {f"{scene.stem}.oracle.out": _run(["oracle", str(scene)])}


def check_inverse_outputs(scene: Path) -> dict[str, bytes]:
    """Golden file name -> bytes of ``check`` and ``inverse`` on the scene and its solve output."""
    solved = GOLDEN / f"{scene.stem}.solve-json.out"
    return {
        f"{scene.stem}.check.out": _run(["check", str(scene)]),
        f"{scene.stem}.inverse.out": _run(["inverse", str(scene)]),
        f"{scene.stem}.inverse-point.out": _run(["inverse", str(solved)]),
    }


def plasticity_outputs(scene: Path) -> dict[str, bytes]:
    """Golden file name -> bytes that ``ftcircles plasticity`` writes for the scene."""
    return {f"{scene.stem}.plasticity.out": _run(["plasticity", str(scene)])}


def evolve_outputs(scene: Path, tmp: Path) -> dict[str, bytes]:
    """Golden file name -> bytes of ``evolve --type A --csv`` and ``evolve --type B``."""
    csv = tmp / "trace.csv"
    type_a = _run(["evolve", str(scene), "--type", "A", "--csv", str(csv)])
    return {
        f"{scene.stem}.evolve-a.out": type_a,
        f"{scene.stem}.evolve-a.csv": csv.read_bytes(),
        f"{scene.stem}.evolve-b.out": _run(["evolve", str(scene), "--type", "B"]),
    }


def _ids(scenes: list[Path]) -> list[str]:
    return [scene.stem for scene in scenes]


def test_golden_files_are_those_of_the_scenes():
    suffixes = (
        ".solve.out", ".solve-json.out", ".solve.svg", ".oracle.out",
        ".check.out", ".inverse.out", ".inverse-point.out",
    )
    expected = {scene.stem + suffix for scene in SCENES for suffix in suffixes}
    expected |= {scene.stem + ".plasticity.out" for scene in PLASTICITY_SCENES}
    expected |= {
        scene.stem + suffix
        for scene in EVOLVE_SCENES
        for suffix in (".evolve-a.out", ".evolve-a.csv", ".evolve-b.out")
    }
    assert {path.name for path in GOLDEN.iterdir()} == expected


def _assert_golden(outputs: dict[str, bytes]) -> None:
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("scene", SCENES, ids=_ids(SCENES))
def test_solve_output_matches_golden(scene, tmp_path):
    _assert_golden(solve_outputs(scene, tmp_path))


@pytest.mark.parametrize("scene", SCENES, ids=_ids(SCENES))
def test_oracle_output_matches_golden(scene):
    _assert_golden(oracle_outputs(scene))


@pytest.mark.parametrize("scene", SCENES, ids=_ids(SCENES))
def test_check_and_inverse_output_matches_golden(scene):
    _assert_golden(check_inverse_outputs(scene))


@pytest.mark.parametrize("scene", PLASTICITY_SCENES, ids=_ids(PLASTICITY_SCENES))
def test_plasticity_output_matches_golden(scene):
    _assert_golden(plasticity_outputs(scene))


@pytest.mark.parametrize("scene", EVOLVE_SCENES, ids=_ids(EVOLVE_SCENES))
def test_evolve_output_matches_golden(scene, tmp_path):
    _assert_golden(evolve_outputs(scene, tmp_path))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for scene in SCENES:
            # inverse reads the solve-json file, so solve's files are written first
            runs = [lambda: solve_outputs(scene, Path(tmp)), lambda: oracle_outputs(scene),
                    lambda: check_inverse_outputs(scene)]
            if scene in PLASTICITY_SCENES:
                runs.append(lambda: plasticity_outputs(scene))
            if scene in EVOLVE_SCENES:
                runs.append(lambda: evolve_outputs(scene, Path(tmp)))
            for run in runs:
                for name, data in run().items():
                    (GOLDEN / name).write_bytes(data)
