"""The package's public surface: exported names, the README tour, the oracle's imports."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import entact

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_all_names_resolve_and_star_import_works():
    missing = [name for name in entact.__all__ if not hasattr(entact, name)]
    assert missing == []
    assert len(set(entact.__all__)) == len(entact.__all__)
    namespace: dict = {}
    exec("from entact import *", namespace)
    assert set(entact.__all__) <= set(namespace)


def test_readme_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_oracle_imports_only_model():
    # the dense oracle checks the other layers, so it must not be built on them
    tree = ast.parse((ROOT / "src" / "entact" / "oracle.py").read_text(encoding="utf-8"))
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("entact")):
            local.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            local.update(alias.name for alias in node.names if alias.name.startswith("entact"))
    assert local == {".model"}
