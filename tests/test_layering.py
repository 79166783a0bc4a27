"""Layering rules: the modules above calibration, inference, sgd and
baselines use only their public names, inference uses only calibration's,
no module uses a private batching name, every random stream is built in
`streams`, and no module imports scipy when it is imported."""

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


def _import_time_scipy(node) -> list:
    """Modules of scipy imported by code that runs when the module is
    imported: its top-level statements, those in if, try, with and class
    blocks included, and not those in a function body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return []
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
    if isinstance(node, ast.ImportFrom):
        return [node.module] if node.level == 0 and node.module.split(".")[0] == "scipy" else []
    return [m for child in ast.iter_child_nodes(node) for m in _import_time_scipy(child)]


@pytest.mark.parametrize("path", sorted(p.name for p in Path(sgdci.__file__).parent.glob("*.py")))
def test_no_module_imports_scipy_at_import(path):
    """scipy is imported where it is used: a first scipy import adds about
    0.1 s and 20 MB of peak RSS, which calibration, the volume study and
    the CLI's start never need."""
    source = (Path(sgdci.__file__).parent / path).read_text(encoding="utf-8")
    assert _import_time_scipy(ast.parse(source)) == []


def test_the_scipy_check_sees_each_form():
    source = ("import numpy as np, scipy\n"
              "from scipy.special import expit\n"
              "if np:\n"
              "    import scipy.linalg as sl\n"
              "try:\n"
              "    from scipy import stats\n"
              "except ImportError:\n"
              "    from scipy.stats import norm\n"
              "class C:\n"
              "    from scipy.special import ndtr\n"
              "from .scipy import x\n"
              "import scipyish\n"
              "def f():\n"
              "    from scipy.special import ndtri\n"
              "g = lambda: __import__('scipy')\n")
    assert _import_time_scipy(ast.parse(source)) == [
        "scipy", "scipy.special", "scipy.linalg", "scipy", "scipy.stats", "scipy.special"]
