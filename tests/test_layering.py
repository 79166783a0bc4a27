"""Layering rules: the modules above calibration, inference, sgd and
baselines use only their public names, inference uses only calibration's,
no module uses a private batching name, and every random stream is built
in `streams`."""

import ast
from pathlib import Path

import pytest

import sgdci

UPPER = ["experiments", "baselines", "cli"]


def _private_uses(tree, lower) -> list:
    """`from .calibration import _x` (relative or absolute) and `calibration._x`,
    for each module named in lower."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            module = node.module.removeprefix("sgdci.")
            if module in lower and (node.level == 1 or node.module.startswith("sgdci.")):
                found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in lower and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def _tree(module):
    return ast.parse((Path(sgdci.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", UPPER + ["inference"])
def test_no_private_calibration_or_inference_names(module):
    assert _private_uses(_tree(module), {"calibration", "inference"}) == []


@pytest.mark.parametrize("module", UPPER)
def test_no_private_sgd_or_baselines_names(module):
    assert _private_uses(_tree(module), {"sgd", "baselines"}) == []


@pytest.mark.parametrize("module", sorted(
    p.stem for p in Path(sgdci.__file__).parent.glob("*.py") if p.stem != "batching"))
def test_no_private_batching_names(module):
    """batching owns the joint statistic: others use joint_constant, check_joint
    and factored_cov, never a private name."""
    assert _private_uses(_tree(module), {"batching"}) == []


def test_the_check_sees_each_form():
    source = ("from .calibration import _eval_chunk, estimate_alpha\n"
              "from sgdci.inference import _gram_blocks\n"
              "from . import calibration\n"
              "calibration._chunk_size(spec)\n"
              "from .sgd import _BLOCK_DOUBLES, replicate\n"
              "from sgdci.baselines import _section_plan\n"
              "from . import sgd\n"
              "sgd._replication_group(30, 20)\n")
    assert _private_uses(ast.parse(source), {"calibration", "inference"}) == [
        "calibration._eval_chunk", "inference._gram_blocks", "calibration._chunk_size"]
    assert _private_uses(ast.parse(source), {"sgd", "baselines"}) == [
        "sgd._BLOCK_DOUBLES", "baselines._section_plan", "sgd._replication_group"]


STREAM_BUILDERS = {"SeedSequence", "PCG64", "default_rng", "Generator"}


def _stream_builds(tree) -> list:
    """Calls of a numpy stream constructor, by bare name or attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in STREAM_BUILDERS:
                found.append(name)
    return found


@pytest.mark.parametrize("path", sorted(
    p.name for p in Path(sgdci.__file__).parent.glob("*.py") if p.name != "streams.py"))
def test_every_stream_comes_from_streams(path):
    source = (Path(sgdci.__file__).parent / path).read_text(encoding="utf-8")
    assert _stream_builds(ast.parse(source)) == []


def test_the_stream_check_sees_each_form():
    source = ("import numpy as np\n"
              "from numpy.random import PCG64, SeedSequence\n"
              "gen: np.random.Generator = np.random.default_rng(0)\n"
              "np.random.Generator(PCG64(SeedSequence(1)))\n")
    assert _stream_builds(ast.parse(source)) == [
        "default_rng", "Generator", "PCG64", "SeedSequence"]
    streams = (Path(sgdci.__file__).parent / "streams.py").read_text(encoding="utf-8")
    assert _stream_builds(ast.parse(streams)) == ["Generator", "PCG64"]
