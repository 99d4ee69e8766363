"""The package's public surface: every exported name exists."""
from __future__ import annotations

import entact


def test_all_names_resolve_and_star_import_works():
    missing = [name for name in entact.__all__ if not hasattr(entact, name)]
    assert missing == []
    assert len(set(entact.__all__)) == len(entact.__all__)
    namespace: dict = {}
    exec("from entact import *", namespace)
    assert set(entact.__all__) <= set(namespace)
