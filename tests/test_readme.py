"""The README's Quick start runs as written, and the package root exports
what the README shows."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import sgdci

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_verbatim(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.count("\n") == 2


def test_package_root_exports_what_the_readme_shows():
    # the Quick start's imports plus every backticked name the README gives
    # for a function or class of the package; `sgd.run_chains` style names
    # are shown with their module and stay out of the root
    text = README.read_text(encoding="utf-8")
    shown = set(re.findall(r"\w+", re.search(r"from sgdci import \((.*?)\)", text, re.S)[1]))
    modules = [importlib.import_module(f"sgdci.{m.name}")
               for m in pkgutil.iter_modules(sgdci.__path__)]
    for name in re.findall(r"`([A-Za-z_]\w*)`", text):
        if any(str(getattr(getattr(mod, name, None), "__module__", None)).startswith("sgdci.")
               for mod in modules):
            shown.add(name)
    public = {n for n, v in vars(sgdci).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == shown
