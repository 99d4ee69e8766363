"""The package's public surface: exported names, the README tour, the imports of the package, the oracle, the reference and the value types."""
from __future__ import annotations

import ast
import copy
import dataclasses
import importlib
import importlib.util
import os
import pickle
import re
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import entact
from entact.cli import main

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


def test_readme_command_outputs_match(tmp_path, monkeypatch, capsys):
    # every command of the command-line block runs, in order, from one directory;
    # the "#   " lines under a command are its output, line for line
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    commands: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith("entact "):
            commands.append((line, []))
        elif line.startswith("#   ") and commands:
            commands[-1][1].append(line[4:])
    assert sum(1 for _, shown in commands if shown) >= 3
    monkeypatch.chdir(tmp_path)
    for command, shown in commands:
        rc = main(shlex.split(command)[1:])
        out = capsys.readouterr().out
        assert rc == 0, command
        if shown:
            assert out.splitlines() == shown, command


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


def _imports(tree: ast.Module) -> tuple[dict[str, str], set[str]]:
    """Each name a module binds by import, mapped to its source, and every module it imports."""
    names: dict[str, str] = {}
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules.add(alias.name)
                names[alias.asname or alias.name.partition(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." * node.level + (node.module or "")
            modules.add(module)
            for alias in node.names:
                modules.add(f"{module}.{alias.name}")
                names[alias.asname or alias.name] = f"{module}.{alias.name}"
    return names, modules


def test_package_modules_use_every_import_and_leave_the_test_reference_alone():
    # the reference scans live under tests/ so that no package code can share them
    problems = []
    for path in sorted((ROOT / "src" / "entact").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, modules = _imports(tree)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            # a name listed in __all__ is re-exported, which counts as a use
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(elt.value for elt in node.value.elts)
        problems += [f"{path.name}: {name} ({source}) is never used"
                     for name, source in names.items() if name not in used]
        problems += [f"{path.name}: imports {module}"
                     for module in modules if "reference" in module.lstrip(".").split(".")]
    assert problems == []


def test_reference_uses_no_oracle_code():
    # the reference checks the oracle, so it writes its own basis index and builds
    _, modules = _imports(ast.parse((ROOT / "tests" / "reference.py").read_text(encoding="utf-8")))
    assert [m for m in modules if m.split(".")[:2] == ["entact", "oracle"]] == []


def test_reference_uses_no_protocol_code():
    # the exact replay checks the pipeline, so it writes every move from its definition
    _, modules = _imports(ast.parse((ROOT / "tests" / "reference.py").read_text(encoding="utf-8")))
    shared = []
    for module in modules:
        parts = module.split(".")
        if parts[0] != "entact" or len(parts) < 2:
            continue
        source = getattr(getattr(entact, parts[1], None), "__module__", None)
        if parts[1] == "protocols" or len(parts) == 2 and source == "entact.protocols":
            shared.append(module)
    assert shared == []


def test_importing_the_package_leaves_numpy_unloaded():
    # only the dense oracle needs numpy; every other command starts without it
    code = "import sys, entact, entact.cli; print('numpy' in sys.modules)"
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "False\n"


def test_every_name_the_benchmark_traces_resolves():
    # the benchmark harness wraps these names; a deletion would otherwise surface only in its run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, owner, attr, _ in tracing.LAYER_FUNCTIONS:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls, None)
        if not callable(getattr(obj, attr, None)):
            missing.append(f"{owner}.{attr}")
    assert missing == []
    # the traced search hands the requirement over as a plain callable
    requirement = entact.example_vii_requirement()
    found = entact.search_specifications(5, lambda spec: requirement(spec))
    assert found == entact.example_pattern("VII")


def test_every_source_parses_as_python_3_10():
    # the package declares requires-python >= 3.10; a 3.11-only construct would fail only there
    sources = [path for top in ("src/entact", "tests", "perfbench")
               for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(sources) >= 20
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _value_samples() -> dict[str, object]:
    """One instance of every value type of the package, by class name."""
    from entact import (Grouping, Specification, Splitting, any_two_activation_requirement,
                        distill_pipeline, grouping_report, random_family_state)
    from entact.oracle import ppt_agreement_report

    state = random_family_state(4, 3)
    grouping = Grouping.from_sets(4, [[1], [2], [3, 4]])
    report = grouping_report(state, grouping)
    trace = distill_pipeline(state, grouping, {1}, {2})
    agreement = ppt_agreement_report(state)
    return {
        "Splitting": Splitting(4, 5), "FamilyState": state, "Grouping": grouping,
        "Specification": Specification.from_int(3, 5), "PairVerdict": report.pairs[0],
        "GroupingReport": report, "Clauses": any_two_activation_requirement(),
        "PipelineStep": trace.steps[-1], "PipelineTrace": trace,
        "SplitCheck": agreement.checks[0], "AgreementReport": agreement,
    }


def _package_dataclasses() -> list[type]:
    found = []
    for name in ("model", "analysis", "protocols", "oracle", "construct", "cli"):
        module = importlib.import_module(f"entact.{name}")
        found += [value for value in vars(module).values() if isinstance(value, type)
                  and dataclasses.is_dataclass(value) and value.__module__ == module.__name__]
    return found


def test_every_value_type_is_slotted_and_frozen():
    samples = _value_samples()
    assert sorted(cls.__name__ for cls in _package_dataclasses()) == sorted(samples)
    for name, value in samples.items():
        assert type(value).__name__ == name
        assert not hasattr(value, "__dict__"), name
        with pytest.raises(TypeError):
            weakref.ref(value)
        first = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, getattr(value, first))
        # a name that is no field has no slot either; on Python 3.10 to 3.13 the frozen
        # __setattr__ of a slotted class refuses it with TypeError
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            value.comment = "kept"


def test_every_value_type_round_trips_through_pickle_copy_and_replace():
    for name, value in _value_samples().items():
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value), dataclasses.replace(value)):
            assert twin is not value and type(twin) is type(value), name
            assert twin == value and hash(twin) == hash(value), name
            assert repr(twin) == repr(value), name


def test_lazy_slots_are_built_once_and_stay_out_of_identity():
    from entact import FamilyState, Grouping

    read = Grouping.from_sets(5, [[1, 4], [2], [3, 5]])
    unread = Grouping.from_masks(5, read.masks)
    holds = read._holds
    assert read._holds is holds
    assert unread._lazy_holds is None and read._lazy_holds is holds
    assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)
    assert unread._holds == holds

    state = FamilyState(3, 0.5, 0.1, (0.05, 0.2, 0.05))
    other = FamilyState(3, 0.5, 0.1, (0.05, 0.2, 0.05))
    indicators = state.indicator_vector()
    assert state._indicators is indicators and state.indicator_vector() is indicators
    assert other._lazy_indicators is None
    assert state == other and hash(state) == hash(other) and repr(state) == repr(other)
    assert other.indicator_vector() == indicators == (1, 0, 1)
