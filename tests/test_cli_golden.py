"""`ftcircles solve` and `ftcircles oracle` output on the demo scenes, pinned
byte for byte.

Each scene in ``demos/scenes`` has four golden files in ``tests/cli_golden``:
the plain listing (``<scene>.solve.out``), the ``--json`` output
(``<scene>.solve-json.out``), the ``--svg`` file (``<scene>.solve.svg``) and
the ``oracle`` listing (``<scene>.oracle.out``).
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


def test_golden_files_are_those_of_the_scenes():
    suffixes = (".solve.out", ".solve-json.out", ".solve.svg", ".oracle.out")
    expected = {scene.stem + suffix for scene in SCENES for suffix in suffixes}
    assert {path.name for path in GOLDEN.iterdir()} == expected


@pytest.mark.parametrize("scene", SCENES, ids=[scene.stem for scene in SCENES])
def test_solve_output_matches_golden(scene, tmp_path):
    for name, data in solve_outputs(scene, tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("scene", SCENES, ids=[scene.stem for scene in SCENES])
def test_oracle_output_matches_golden(scene):
    for name, data in oracle_outputs(scene).items():
        assert data == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for scene in SCENES:
            outputs = {**solve_outputs(scene, Path(tmp)), **oracle_outputs(scene)}
            for name, data in outputs.items():
                (GOLDEN / name).write_bytes(data)
