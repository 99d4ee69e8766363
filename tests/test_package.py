"""The package's public surface: every exported name exists, the README tour runs."""
from __future__ import annotations

import re
from pathlib import Path

import entact

README = Path(__file__).resolve().parents[1] / "README.md"


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
