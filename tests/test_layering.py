"""The modules above calibration and inference use only their public names."""

import ast
from pathlib import Path

import pytest

import sgdci

LOWER = {"calibration", "inference"}


def _private_uses(tree) -> list:
    """`from .calibration import _x` (relative or absolute) and `calibration._x`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            module = node.module.removeprefix("sgdci.")
            if module in LOWER and (node.level == 1 or node.module.startswith("sgdci.")):
                found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in LOWER and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("module", ["experiments", "baselines", "cli"])
def test_no_private_calibration_or_inference_names(module):
    source = (Path(sgdci.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    assert _private_uses(ast.parse(source)) == []


def test_the_check_sees_each_form():
    source = ("from .calibration import _eval_chunk, estimate_alpha\n"
              "from sgdci.inference import _gram_blocks\n"
              "from . import calibration\n"
              "calibration._chunk_size(spec)\n")
    assert _private_uses(ast.parse(source)) == [
        "calibration._eval_chunk", "inference._gram_blocks", "calibration._chunk_size"]
