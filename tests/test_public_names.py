"""The benchmark's per-layer trace wraps exactly the functions in each qmwrt
module's __all__, so a stale or missing entry changes what it reports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import qmwrt


def test_every_listed_name_resolves():
    for info in pkgutil.iter_modules(qmwrt.__path__):
        mod = importlib.import_module(f"qmwrt.{info.name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (info.name, missing)


def test_every_reexport_is_listed_in_its_module():
    tree = ast.parse(Path(qmwrt.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        listed = importlib.import_module(f"qmwrt.{node.module}").__all__
        unlisted = [a.name for a in node.names if a.name not in listed]
        assert not unlisted, (node.module, unlisted)
