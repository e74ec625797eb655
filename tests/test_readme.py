"""README names that point into the package still exist there."""
import importlib
import pkgutil
import re
from pathlib import Path

import qdtbench

README = Path(__file__).resolve().parents[1] / "README.md"
LAYERS = {m.name for m in pkgutil.iter_modules(qdtbench.__path__)}


def readme_names():
    """(layer, NAME) for every backticked `layer.NAME` in README.md whose
    layer is a qdtbench module."""
    spans = re.findall(r"`([a-z_]+)\.([A-Za-z_]\w*)`", README.read_text())
    return sorted({(layer, name) for layer, name in spans
                   if layer in LAYERS})


def test_readme_names_resolve():
    names = readme_names()
    assert ("branching", "TREE_GUARD") in names
    missing = [f"{layer}.{name}" for layer, name in names
               if not hasattr(importlib.import_module(f"qdtbench.{layer}"),
                              name)]
    assert missing == []
