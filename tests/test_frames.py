"""The large-group frames in ``tools/frames``: one-group ``perm`` and
``matgrp`` specs for W(B_6), GL(3,3), A9, S9 and GL(2,31), one spec
holding S9, A9 and GL(2,31) together, and a ``catalog`` recipe for the
2-Frobenius witness twofrob.g.  The two smallest and twofrob.g are built
here; the others are only parsed, as building them takes seconds and
hundreds of MB."""

import json
from pathlib import Path

import pytest

from gklab.cli import load_spec

FRAMES = Path(__file__).resolve().parent.parent / "tools" / "frames"
BUILT = {"wb6": 46_080, "gl3_3": 11_232, "twofrob_g": 15_309}
PARSED = ("a9", "s9", "gl2_31")
COMBINED = "s9_a9_gl2_31"


def _recipes(name: str) -> dict:
    return json.loads((FRAMES / f"{name}.json").read_text())["groups"]


@pytest.mark.parametrize("name", sorted(BUILT))
def test_small_frame_builds_to_its_order(name):
    groups = load_spec(str(FRAMES / f"{name}.json"))
    assert {k: G.order for k, G in groups.items()} == {name: BUILT[name]}


@pytest.mark.parametrize("name", PARSED)
def test_large_frame_is_one_perm_or_matgrp_recipe(name):
    recipes = _recipes(name)
    assert list(recipes) == [name]
    assert recipes[name]["type"] in ("perm", "matgrp")


def test_combined_frame_holds_the_single_recipes():
    assert _recipes(COMBINED) == {n: _recipes(n)[n] for n in ("s9", "a9",
                                                              "gl2_31")}


def test_every_frame_file_is_named_here():
    assert {p.stem for p in FRAMES.glob("*.json")} == {
        *BUILT, *PARSED, COMBINED}
