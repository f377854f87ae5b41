"""Seeded fuzzing of the mesh readers: every mutation of a bundled mesh file
(truncation, character flips, a number token replaced by a bad value) either
loads or raises a ``DdrError``, without numpy warnings, and the CLI reports a
bad file with exit code 1 and no traceback."""

import re
import warnings

import numpy as np
import pytest

from conftest import ASSETS
from ddrplate.cli import main
from ddrplate.errors import DdrError
from ddrplate.mesh import load_mesh

FUZZ_SEED = 20240917
N_MUTATIONS = 200                 # per format
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
REPLACEMENTS = ["nan", "1e308", "-1", "1.5", "null", "[]", '"a"']
FLIP_CHARS = '0123456789.-+e[]{},:" naxl'


def _typ2_text(mesh) -> str:
    lines = ["Vertices", str(mesh.n_vertices)]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertex_coords]
    lines += ["cells", str(mesh.n_elements)]
    lines += [" ".join(map(str, [len(el.vertices)] + [v + 1 for v in el.vertices]))
              for el in mesh.elements]
    return "\n".join(lines) + "\n"


def _mutate(text: str, rng) -> str:
    kind = rng.integers(3)
    if kind == 0:                                  # truncation
        return text[:rng.integers(len(text))]
    if kind == 1:                                  # character flips
        chars = list(text)
        for pos in rng.integers(len(chars), size=rng.integers(1, 4)):
            chars[pos] = FLIP_CHARS[rng.integers(len(FLIP_CHARS))]
        return "".join(chars)
    spans = [m.span() for m in NUMBER.finditer(text)]   # number token replaced
    start, end = spans[rng.integers(len(spans))]
    return text[:start] + REPLACEMENTS[rng.integers(len(REPLACEMENTS))] + text[end:]


@pytest.fixture(scope="module")
def sources():
    json_text = (ASSETS / "hexa_01.json").read_text()
    return {"json": json_text, "typ2": _typ2_text(load_mesh(str(ASSETS / "hexa_01.json")))}


@pytest.mark.parametrize("fmt", ["json", "typ2"])
def test_mutated_meshes_load_or_raise_typed_errors(sources, fmt, tmp_path):
    rng = np.random.default_rng(FUZZ_SEED)
    path = tmp_path / f"m.{fmt}"
    path.write_text(sources[fmt])
    assert load_mesh(str(path), fmt=fmt).n_elements > 0
    outcomes = {"loaded": 0, "refused": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # a numpy warning fails the case
        for _ in range(N_MUTATIONS):
            path.write_text(_mutate(sources[fmt], rng))
            try:
                load_mesh(str(path), fmt=fmt)
                outcomes["loaded"] += 1
            except DdrError:
                outcomes["refused"] += 1
    assert outcomes["loaded"] > 0 and outcomes["refused"] > 0


def test_cli_reports_a_mutated_mesh_without_traceback(sources, tmp_path, capsys):
    (tmp_path / "m.json").write_text(sources["json"].replace("0.0", "1e308", 1))
    code = main(["--mesh-dir", str(tmp_path), "--refinements", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "GeometryError" in err and "Traceback" not in err


def test_huge_coordinates_are_refused_before_any_geometry(tmp_path):
    text = (ASSETS / "hexa_01.json").read_text()
    first = NUMBER.search(text)
    for huge in ("1e308", "1e200", "1e160", "-1e155"):
        path = tmp_path / "m.json"
        path.write_text(text[:first.start()] + huge + text[first.end():])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DdrError, match="overflow when squared"):
                load_mesh(str(path))
