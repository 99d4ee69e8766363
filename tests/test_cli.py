"""Command-line behavior, driven through main() in process, and a closed pipe in a child process."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from entact import (Grouping, Specification, classify_groupings, example_state,
                    from_specification, grouping_report, random_family_state)
from entact.cli import load_state, main, save_state, state_document, state_from_document


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def vi_state_file(tmp_path):
    path = tmp_path / "vi.json"
    save_state(example_state("VI"), str(path))
    return str(path)


def test_state_document_roundtrip(tmp_path):
    state = random_family_state(4, seed=5)
    path = tmp_path / "s.json"
    save_state(state, str(path))
    assert load_state(str(path)) == state
    assert state_from_document(state_document(state)) == state


def test_state_document_rejection():
    good = state_document(random_family_state(3, seed=1))
    for mangle in (
        lambda d: d.pop("n"),
        lambda d: d.update(schema=99),
        lambda d: d.update(lam="nope"),
        lambda d: d.update(lam0_plus="x"),
        lambda d: d.update(lam=[-1.0, 0.2, 0.2]),
    ):
        doc = dict(good)
        mangle(doc)
        with pytest.raises(ValueError):
            state_from_document(doc)
    with pytest.raises(ValueError):
        state_from_document([1, 2, 3])
    with pytest.raises(ValueError):
        load_state("/nonexistent/state.json")


def test_non_finite_state_file_is_rejected(tmp_path, capsys):
    doc = state_document(example_state("VI"))
    doc["lam0_plus"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # Python's json writes and reads NaN
    rc, out, err = run(capsys, "analyze", "--state", str(path), "--grouping", "1|2|3,4")
    assert rc == 2 and out == ""
    assert "lam0_plus is not finite" in err


def test_state_file_of_the_wrong_shape_is_rejected(tmp_path, capsys):
    good = state_document(example_state("VI"))
    path = tmp_path / "state.json"
    for change, message in (
        ({"lam": good["lam"][:-1]}, "coefficient array has length 6, expected 7"),
        ({"lam": good["lam"] + [0.0]}, "coefficient array has length 8, expected 7"),
        ({"n": 1, "lam": []}, "a state needs an integer n of at least 2, got n=1"),
    ):
        path.write_text(json.dumps({**good, **change}))
        rc, out, err = run(capsys, "analyze", "--state", str(path), "--grouping", "1|2|3,4")
        assert rc == 2 and out == "" and message in err, (change, err)


def test_construct_example_to_file(tmp_path, capsys):
    path = tmp_path / "vi.json"
    rc, out, err = run(capsys, "construct", "--example", "VI", "-o", str(path))
    assert rc == 0 and out == "" and err == ""
    assert load_state(str(path)) == example_state("VI")


def test_construct_rejects_lam0_minus_that_erases_the_gap(tmp_path, capsys):
    path = tmp_path / "vi.json"
    rc, out, err = run(
        capsys, "construct", "--example", "VI", "--lam0-minus", "1e16", "-o", str(path)
    )
    assert rc == 2 and out == ""
    assert "lam0_minus" in err
    assert not path.exists()


def test_construct_stdout_json(capsys):
    rc, out, _ = run(capsys, "construct", "--example", "VII")
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "state"
    assert state_from_document(doc) == example_state("VII")


def test_construct_random_matches_library(capsys):
    rc, out, _ = run(capsys, "construct", "--random", "--n", "4", "--seed", "3")
    assert rc == 0
    assert state_from_document(json.loads(out)) == random_family_state(4, seed=3)
    rc, _, err = run(capsys, "construct", "--random")
    assert rc == 2 and "error:" in err


def test_construct_from_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 3, "bits": {"1": 1, "2": 0, "3": 1}}))
    rc, out, _ = run(capsys, "construct", "--spec", str(spec))
    assert rc == 0
    state = state_from_document(json.loads(out))
    assert state.indicator_vector() == (1, 0, 1)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "bits": {"1": 1}}))
    rc, _, err = run(capsys, "construct", "--spec", str(bad))
    assert rc == 2 and "error:" in err

    for value in (2, -1, True, "1", 1.0):
        bad.write_text(json.dumps({"n": 3, "bits": {"1": value, "2": 0, "3": 1}}))
        rc, out, err = run(capsys, "construct", "--spec", str(bad))
        assert rc == 2 and out == "" and "is not 0 or 1" in err

    for n in (True, 1, 0, -3):
        bad.write_text(json.dumps({"n": n, "bits": {}}))
        rc, out, err = run(capsys, "construct", "--spec", str(bad), "-o", str(tmp_path / "s.json"))
        assert rc == 2 and out == "" and f"n={n!r}" in err, (n, err)
        assert not (tmp_path / "s.json").exists()


def test_files_whose_n_no_table_reaches_are_refused_by_their_size(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({**state_document(example_state("VI")), "n": 100000}))
    rc, out, err = run(capsys, "analyze", "--state", str(state), "--grouping", "1|2|3,4")
    assert (rc, out, err) == (
        2, "", "error: a state with n=100000 needs 2^99999 - 1 entries, got 7\n"
    )
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 100000, "bits": {"1": 1, "2": 0, "3": 1}}))
    rc, out, err = run(capsys, "construct", "--spec", str(spec))
    assert (rc, out, err) == (
        2, "", "error: a specification with n=100000 needs 2^99999 - 1 entries, got 3\n"
    )


@pytest.mark.parametrize("key", ["03", " 3", "+3", "3 ", "3.0", "x", "None"])
def test_spec_keys_are_plain_decimal_labels(tmp_path, capsys, key):
    # "03" would name label 3 a second time, and the later entry would win
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 3, "bits": {"1": 1, "2": 0, "3": 1, key: 0}}))
    rc, out, err = run(capsys, "construct", "--spec", str(spec))
    assert (rc, out, err) == (2, "", f"error: bits entry {key!r} is not a label\n")


def test_state_file_of_huge_integer_weights_is_invalid(tmp_path, capsys):
    # each weight fits a float, their sum does not
    path = tmp_path / "state.json"
    path.write_text(json.dumps({**state_document(example_state("VI")),
                                "lam0_plus": 10**308, "lam": [10**308] * 7}))
    rc, out, err = run(capsys, "analyze", "--state", str(path), "--grouping", "1|2|3,4")
    assert rc == 2 and out == "" and err.startswith("error: invalid state: total weight inf"), err


def test_state_file_of_a_number_too_long_to_read_names_the_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    text = json.dumps({**state_document(example_state("VI")), "lam0_plus": 0})
    path.write_text(text.replace('"lam0_plus": 0', '"lam0_plus": 1' + "0" * 4999))
    rc, out, err = run(capsys, "analyze", "--state", str(path), "--grouping", "1|2|3,4")
    assert rc == 2 and out == ""
    assert err.startswith(f"error: cannot read state file {path}: "), err


@pytest.mark.parametrize("source", [["--random"], ["--example", "V"]])
def test_construct_refuses_a_party_count_past_the_cap(capsys, source):
    rc, out, err = run(capsys, "construct", *source, "--n", "40")
    assert rc == 2 and out == ""
    assert err.endswith(" with n=40 walks 2^39 - 1 labels; construction caps at n=20\n"), err


def test_state_file_entries_must_be_json_numbers(tmp_path, capsys):
    good = state_document(example_state("VI"))
    path = tmp_path / "state.json"
    # the weights pass the library's validate, whose problems the error lists
    cases = [
        ("lam0_plus", "1", "invalid state: lam0_plus is not a real number ('1')"),
        ("lam0_minus", False, "invalid state: lam0_minus is not a real number (False)"),
        ("lam0_minus", None, "invalid state: lam0_minus is not a real number (None)"),
        ("lam", ["0"] + good["lam"][1:], "invalid state: non-real coefficients at labels [1]"),
        ("lam", good["lam"][:2] + [True] + good["lam"][3:],
         "invalid state: non-real coefficients at labels [3]"),
        ("lam0_plus", 10**400, f"invalid state: lam0_plus is not finite ({10**400})"),
        # JSON true is no integer, though Python's True == 1
        ("schema", True, "unsupported state schema True"),
        ("n", True, "a state needs an integer n of at least 2, got n=True"),
        ("n", 4.0, "a state needs an integer n of at least 2, got n=4.0"),
    ]
    for field, value, message in cases:
        path.write_text(json.dumps({**good, field: value}))
        rc, out, err = run(capsys, "analyze", "--state", str(path), "--grouping", "1|2|3,4")
        assert (rc, out, err) == (2, "", f"error: {message}\n"), (field, value, err)
    path.write_text(json.dumps({**good, "lam0_minus": 0}))  # a JSON integer is a number
    rc, _, _ = run(capsys, "analyze", "--state", str(path), "--grouping", "1|2|3,4")
    assert rc == 0


def test_construct_rejects_lam0_minus_it_cannot_write(tmp_path, capsys):
    # nan would print invalid JSON; inf and 1e308 overflow the total weight
    path = tmp_path / "s.json"
    for value in ("nan", "inf", "1e308"):
        rc, out, err = run(
            capsys, "construct", "--example", "VI", "--lam0-minus", value, "-o", str(path)
        )
        assert rc == 2 and out == "" and err.startswith("error:"), (value, err)
        assert not path.exists()


def test_construct_pretty_table(capsys):
    rc, out, _ = run(capsys, "construct", "--example", "VI", "--pretty")
    assert rc == 0
    assert "parties" in out and "indicator" in out and "(A2A3A4)-(A1)" in out


def test_construct_pattern_parameter_errors(capsys):
    rc, _, err = run(capsys, "construct", "--example", "I", "--n", "6")
    assert rc == 2 and "needs j" in err
    with pytest.raises(SystemExit):
        main(["construct", "--example", "VI", "--random"])


def test_construct_group_names_bad_party(capsys):
    rc, out, err = run(capsys, "construct", "--example", "III", "--n", "5", "--group", "1,x")
    assert rc == 2 and out == ""
    assert "bad party 'x' in --group '1,x'" in err


def test_analyze_pair_verdict(vi_state_file, capsys):
    rc, out, _ = run(
        capsys, "analyze", "--state", vi_state_file,
        "--grouping", "1|2|3,4", "--pair", "1", "2", "--assert",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "pair-verdict"
    assert doc["c"] == [1] and doc["d"] == [2]
    assert doc["distillable"] is True and doc["witness"] is None


def test_analyze_pair_failure_and_witness(vi_state_file, capsys):
    rc, out, _ = run(
        capsys, "analyze", "--state", vi_state_file,
        "--grouping", "1,3|2|4", "--pair", "1", "2",
    )
    assert rc == 0  # no --assert, reporting a negative verdict is success
    doc = json.loads(out)
    assert doc["distillable"] is False
    assert doc["witness"] == {"mask": 5, "splitting": "(A2A4)-(A1A3)"}
    rc, _, _ = run(
        capsys, "analyze", "--state", vi_state_file,
        "--grouping", "1,3|2|4", "--pair", "1", "2", "--assert",
    )
    assert rc == 1


def test_analyze_grouping_report(vi_state_file, capsys):
    rc, out, _ = run(
        capsys, "analyze", "--state", vi_state_file, "--grouping", "1|2|3,4", "--assert"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "grouping-report"
    assert doc["grouping"] == [[1], [2], [3, 4]]
    assert len(doc["pairs"]) == 3
    assert doc["any_distillable"] is True
    assert doc["ghz"] == [[1], [2], [3, 4]]
    rc, _, _ = run(
        capsys, "analyze", "--state", vi_state_file, "--grouping", "1,3|2|4", "--assert"
    )
    assert rc == 1


def _pair_reference(pv):
    """One pair verdict as JSON fields, built from the library."""
    return {
        "c": sorted(pv.c),
        "d": sorted(pv.d),
        "distillable": pv.distillable,
        "witness": None if pv.witness is None
        else {"mask": pv.witness.mask, "splitting": str(pv.witness)},
    }


def _report_reference(rep):
    """One grouping report as JSON fields, built from the library."""
    return {
        "grouping": rep.grouping.as_lists(),
        "pairs": [_pair_reference(pv) for pv in rep.pairs],
        "ghz": [sorted(g) for g in rep.ghz],
        "any_distillable": rep.any_distillable,
    }


def _sweep_document(state, two_groups_only):
    """The sweep document built from the library, field by field."""
    reports = [
        _report_reference(rep)
        for rep in classify_groupings(state, two_groups_only=two_groups_only)
    ]
    return {"schema": 1, "kind": "grouping-sweep", "n": state.n,
            "count": len(reports), "reports": reports}


def test_analyze_all_groupings_sweep(vi_state_file, tmp_path, capsys):
    rc, out, _ = run(capsys, "analyze", "--state", vi_state_file, "--all-groupings")
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "grouping-sweep"
    assert doc["count"] == 15 and len(doc["reports"]) == 15
    rc, out, _ = run(
        capsys, "analyze", "--state", vi_state_file, "--all-groupings", "--two-groups-only"
    )
    assert json.loads(out)["count"] == 7
    # the streamed document has the bytes of one json.dumps of the whole sweep
    r6_file = str(tmp_path / "r6.json")
    save_state(random_family_state(6, seed=2), r6_file)
    for path in (vi_state_file, r6_file):
        for flags in ([], ["--two-groups-only"]):
            rc, out, _ = run(capsys, "analyze", "--state", path, "--all-groupings", *flags)
            want = _sweep_document(load_state(path), two_groups_only=bool(flags))
            assert rc == 0 and out == json.dumps(want) + "\n"
    rc, _, err = run(
        capsys, "analyze", "--state", vi_state_file, "--all-groupings", "--assert"
    )
    assert rc == 2 and "error:" in err
    rc, out, err = run(
        capsys, "analyze", "--state", vi_state_file, "--all-groupings", "--guard", "3"
    )
    assert rc == 2 and out == ""
    assert err == (
        "error: sweeping all groupings of 4 parties is a large enumeration; "
        "pass --guard=4 to confirm\n"
    )


# sha256 of the stdout of sweeps of `construct --random --n N --seed 3`, as CI pins them
SWEEP_PINS = [
    (8, [], "535830f4f1e1effaf6231bbe3964187f57a4c6ab4266f15702f992f651282aab"),
    (8, ["--two-groups-only"], "f71906dbdc07ae3c277672fc710a902f7aadd5dee9feb8ee171661787eec7bd1"),
    (8, ["--pretty"], "8eb5ddc03cf5c155efe35029b12ea4ec9db3933edcf868e141c961c31564c828"),
    (9, [], "6bcecd704f6592d4bf0c5df8559abd5db83e593f068a9074fbe9a63660346bdf"),
]


def test_sweep_output_matches_its_pinned_hash(tmp_path, capsys):
    for n in (8, 9):
        path = str(tmp_path / f"r{n}.json")
        rc, _, _ = run(capsys, "construct", "--random", "--n", str(n), "--seed", "3", "-o", path)
        assert rc == 0
    for n, flags, pin in SWEEP_PINS:
        rc, out, err = run(capsys, "analyze", "--state", str(tmp_path / f"r{n}.json"),
                           "--all-groupings", *flags)
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == pin, (n, flags)


def test_a_closed_pipe_exits_141_quietly(tmp_path, capsys):
    # as `entact analyze ... | head -c 100` does: the reader takes 100 bytes and closes the pipe
    path = str(tmp_path / "r9.json")
    assert run(capsys, "construct", "--random", "--n", "9", "--seed", "3", "-o", path)[0] == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.Popen(
        [sys.executable, "-m", "entact.cli", "analyze", "--state", path, "--all-groupings"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), err) == (141, b"")


def _reference_states():
    yield "VI", example_state("VI")
    yield "VII", example_state("VII")
    for n in range(2, 9):
        yield f"random-{n}", random_family_state(n, seed=10 + n)


@pytest.mark.parametrize("name, state", list(_reference_states()))
@pytest.mark.parametrize("flags", [[], ["--two-groups-only"]])
def test_sweep_bytes_match_the_library(tmp_path, capsys, name, state, flags):
    path = str(tmp_path / f"{name}.json")
    save_state(state, path)
    rc, out, err = run(capsys, "analyze", "--state", path, "--all-groupings", *flags)
    want = _sweep_document(load_state(path), two_groups_only=bool(flags))
    assert (rc, err) == (0, "") and out == json.dumps(want) + "\n"


def _pretty_sweep_reference(state):
    """The --pretty sweep built line by line from the library."""
    lines = []
    for rep in classify_groupings(state):
        flags = []
        for pv in rep.pairs:
            c = ",".join(str(p) for p in sorted(pv.c))
            d = ",".join(str(p) for p in sorted(pv.d))
            flags.append(f"({c})x({d})=" + ("yes" if pv.distillable else "no"))
        lines.append(str(rep.grouping).ljust(24) + " " + " ".join(flags) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("name, state", [("VI", example_state("VI")),
                                         ("random-6", random_family_state(6, seed=2))])
def test_pretty_sweep_lines_match_the_library(tmp_path, capsys, name, state):
    path = str(tmp_path / f"{name}.json")
    save_state(state, path)
    rc, out, err = run(capsys, "analyze", "--state", path, "--all-groupings", "--pretty")
    assert (rc, err) == (0, "") and out == _pretty_sweep_reference(load_state(path))


_SINGLE_CASES = [
    ("VI", example_state("VI"), ["1|2|3,4", "1,3|2|4", "1|2|3|4", "1,2,3,4"]),
    ("random-6", random_family_state(6, seed=2),
     ["1|2|3|4|5|6", "1,2|3,4|5,6", "1,4|2|3,5,6", "1,2,3|4,5,6", "1,2,3,4,5,6"]),
]


@pytest.mark.parametrize("name, state, specs", _SINGLE_CASES)
def test_grouping_report_and_pair_bytes_match_the_library(tmp_path, capsys, name, state, specs):
    path = str(tmp_path / f"{name}.json")
    save_state(state, path)
    state = load_state(path)
    for spec in specs:
        grouping = Grouping.from_sets(state.n, [map(int, g.split(",")) for g in spec.split("|")])
        rep = grouping_report(state, grouping)
        rc, out, err = run(capsys, "analyze", "--state", path, "--grouping", spec)
        want = {"schema": 1, "kind": "grouping-report", "n": state.n, **_report_reference(rep)}
        assert (rc, err) == (0, "") and out == json.dumps(want) + "\n"
        for pv in rep.pairs:
            first, second = min(pv.c), min(pv.d)
            rc, out, err = run(capsys, "analyze", "--state", path, "--grouping", spec,
                               "--pair", str(first), str(second))
            want = {"schema": 1, "kind": "pair-verdict", "n": state.n,
                    "grouping": grouping.as_lists(), **_pair_reference(pv)}
            assert (rc, err) == (0, "") and out == json.dumps(want) + "\n"


@pytest.mark.parametrize("guard", ["0", "-2"])
def test_analyze_refuses_a_guard_below_one(vi_state_file, capsys, guard):
    rc, out, err = run(
        capsys, "analyze", "--state", vi_state_file, "--all-groupings", "--guard", guard
    )
    assert rc == 2 and out == ""
    assert err == f"error: a sweep needs an integer --guard of at least 1, got --guard={guard}\n"


@pytest.mark.parametrize("flags", [["--two-groups-only"], ["--guard", "1"],
                                   ["--two-groups-only", "--guard", "1"]])
def test_analyze_refuses_sweep_flags_without_a_sweep(vi_state_file, capsys, flags):
    rc, out, err = run(
        capsys, "analyze", "--state", vi_state_file, "--grouping", "1|2|3,4", *flags
    )
    assert rc == 2 and out == ""
    assert "--two-groups-only and --guard need --all-groupings" in err


def test_analyze_pair_within_one_group(vi_state_file, capsys):
    rc, _, err = run(
        capsys, "analyze", "--state", vi_state_file,
        "--grouping", "1,2|3|4", "--pair", "1", "2",
    )
    assert rc == 2 and "error:" in err
    assert "parties 1 and 2 are in the same group 1,2" in err


@pytest.mark.parametrize("command", ["analyze", "protocol"])
@pytest.mark.parametrize(
    "pair, message",
    [
        (("1", "2"), "parties 1 and 2 are in the same group 1,2"),
        (("1", "9"), "party 9 outside 1..4"),
    ],
)
def test_pair_errors_name_the_fault(vi_state_file, capsys, command, pair, message):
    rc, out, err = run(
        capsys, command, "--state", vi_state_file, "--grouping", "1,2|3|4", "--pair", *pair,
    )
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


def test_protocol_json_success(vi_state_file, capsys):
    rc, out, _ = run(
        capsys, "protocol", "--state", vi_state_file,
        "--grouping", "1|2|3,4", "--pair", "1", "2", "--assert",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "pipeline"
    assert doc["succeeded"] is True
    assert doc["precision_limited"] is False
    assert doc["witness"] is None
    assert doc["final_split"]["splitting"] == "(A2)-(A1)"
    assert doc["outcome"]["fidelity"] == pytest.approx(1.0)
    kinds = [s["kind"] for s in doc["steps"]]
    assert kinds == ["start", "join", "permute", "measure", "measure", "project"]
    assert "state" not in doc["steps"][0]


def test_protocol_json_trace_includes_states(vi_state_file, capsys):
    rc, out, _ = run(
        capsys, "protocol", "--state", vi_state_file,
        "--grouping", "1|2|3,4", "--pair", "1", "2", "--json-trace",
    )
    assert rc == 0
    doc = json.loads(out)
    first = state_from_document(doc["steps"][0]["state"])
    assert first == example_state("VI")
    assert doc["steps"][-1]["state"]["n"] == 2


def test_protocol_failure_assert(vi_state_file, capsys):
    rc, out, _ = run(
        capsys, "protocol", "--state", vi_state_file,
        "--grouping", "1,3|2|4", "--pair", "1", "2", "--assert",
    )
    assert rc == 1
    doc = json.loads(out)
    assert doc["succeeded"] is False
    assert doc["witness"]["mask"] == 5
    assert doc["outcome"] is None


def test_protocol_pretty(vi_state_file, capsys):
    rc, out, _ = run(
        capsys, "protocol", "--state", vi_state_file,
        "--grouping", "1|2|3,4", "--pair", "1", "2", "--pretty",
    )
    assert rc == 0
    assert "outcome: fidelity 1, distillable" in out
    rc, out, _ = run(
        capsys, "protocol", "--state", vi_state_file,
        "--grouping", "1,3|2|4", "--pair", "1", "2", "--pretty",
    )
    assert "blocked by (A2A4)-(A1A3)" in out


def test_protocol_says_when_floats_cannot_show_the_margin(tmp_path, capsys):
    # the pair ends at 0.99995 of the half-gap, a margin the amplified float states lose
    path = str(tmp_path / "thin.json")
    assert run(capsys, "construct", "--random", "--n", "6", "--seed", "20", "-o", path)[0] == 0
    args = ("protocol", "--state", path, "--grouping", "1,5|2|3|4|6", "--pair", "1", "4", "--assert")
    for flags in ((), ("--json-trace",)):
        rc, out, _ = run(capsys, *args, *flags)
        doc = json.loads(out)
        assert rc == 0 and doc["succeeded"] is True and doc["precision_limited"] is True
    rc, out, _ = run(capsys, *args, "--pretty")
    assert rc == 0
    assert out.splitlines()[-1].endswith(", distillable (precision limited)")


def test_verify_agreement(tmp_path, capsys):
    path = tmp_path / "r.json"
    save_state(random_family_state(3, seed=9), str(path))
    rc, out, _ = run(capsys, "verify", "--state", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "verify"
    assert doc["all_agree"] is True
    assert len(doc["checks"]) == 3
    for tol in ("-1", "nan", "inf"):
        rc, out, err = run(capsys, "verify", "--state", str(path), "--tol", tol)
        assert rc == 2 and out == "" and "tolerance must be finite and nonnegative" in err


def test_verify_reaches_sixteen_parties_and_refuses_seventeen(tmp_path, capsys):
    path = tmp_path / "v.json"
    save_state(example_state("V", 16), str(path))
    rc, out, _ = run(capsys, "verify", "--state", str(path), "--pretty")
    assert rc == 0
    assert out.splitlines()[-1] == "agreement: complete"
    assert len(out.splitlines()) == 1 << 15
    save_state(example_state("V", 17), str(path))
    rc, out, err = run(capsys, "verify", "--state", str(path))
    assert rc == 2 and out == ""
    assert "agreement report caps at 16 parties (dimension 65536); requested n=17" in err


def test_verify_flags_boundary_disagreement(tmp_path, capsys):
    # indicator says distillable by 2e-12 but the eigenvalue check at
    # tolerance 1e-10 reads the dense matrix as separable
    doc = {
        "schema": 1,
        "n": 3,
        "lam0_plus": 0.5 + 2e-12,
        "lam0_minus": 0.0,
        "lam": [0.25 - 1e-12, 0.0, 0.0],
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", "--state", str(path))
    assert rc == 1
    parsed = json.loads(out)
    assert parsed["all_agree"] is False
    bad = [c for c in parsed["checks"] if not c["agree"]]
    assert [c["mask"] for c in bad] == [1]
    # a tolerance tighter than the offset restores agreement
    rc, _, _ = run(capsys, "verify", "--state", str(path), "--tol", "1e-13")
    assert rc == 0


def test_search_finds_catalog_pattern(capsys):
    rc, out, _ = run(capsys, "search", "--requirement", "example-vii")
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "search" and doc["found"] is True
    assert doc["pattern"]["value"] == 13091
    assert doc["pattern"]["ones"] == [1, 2, 6, 9, 10, 13, 14]


def test_search_rejects_wrong_party_count(capsys):
    # the party count comes from the requirement, so there is no --n to get wrong
    with pytest.raises(SystemExit):
        main(["search", "--n", "5", "--requirement", "any-two"])
    with pytest.raises(SystemExit):
        main(["search", "--requirement", "bogus"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "entact" in capsys.readouterr().out


def test_missing_state_file_reports_error(capsys):
    rc, _, err = run(capsys, "analyze", "--state", "/nonexistent.json", "--grouping", "1|2")
    assert rc == 2 and err.startswith("error:")


def _pretty_state_reference(state):
    """The construct --pretty table, line by line from the state's fields."""
    lines = [f"parties        {state.n}", f"lam0_plus      {state.lam0_plus:.12g}",
             f"lam0_minus     {state.lam0_minus:.12g}", f"delta          {state.delta:.12g}",
             "label     coefficient  indicator  splitting"]
    for m in range(1, 1 << (state.n - 1)):
        side_b = [p for p in range(1, state.n) if m >> (p - 1) & 1]
        side_a = [p for p in range(1, state.n + 1) if p not in side_b]
        split = "(" + "".join(f"A{p}" for p in side_a) + ")-(" + "".join(f"A{p}" for p in side_b) + ")"
        lines.append(f"{m:>5}  {state.lam[m - 1]:>14.10g}  {state.indicator(m):>9}  {split}")
    return "".join(line + "\n" for line in lines)


_CATALOG_COMMANDS = [
    (["--example", "I", "--n", "8", "--j", "3"], ("I", 8), {"j": 3}),
    (["--example", "II", "--n", "10", "--band", "40", "60"], ("II", 10), {"band": (40.0, 60.0)}),
    (["--example", "III", "--n", "5", "--group", "1,3,5"], ("III", 5), {"group": [1, 3, 5]}),
    (["--example", "IV", "--n", "8", "--j", "3"], ("IV", 8), {"j": 3}),
    (["--example", "v", "--n", "8"], ("V", 8), {}),
    (["--example", "VI"], ("VI",), {}),
    (["--example", " VII "], ("VII",), {}),
]
_REALIZE_OPTIONS = [
    ([], {}),
    (["--margin", "0.25"], {"margin": 0.25}),
    (["--lam0-minus", "0.3"], {"lam0_minus": 0.3}),
    (["--margin", "1", "--lam0-minus", "2.5"], {"margin": 1.0, "lam0_minus": 2.5}),
]


@pytest.mark.parametrize("argv, args, kwargs", _CATALOG_COMMANDS)
@pytest.mark.parametrize("options, realize", _REALIZE_OPTIONS)
def test_construct_example_bytes(tmp_path, capsys, argv, args, kwargs, options, realize):
    state = example_state(*args, **kwargs, **realize)
    rc, out, err = run(capsys, "construct", *argv, *options)
    assert (rc, out, err) == (0, json.dumps(state_document(state)) + "\n", "")
    rc, out, err = run(capsys, "construct", *argv, *options, "--pretty")
    assert (rc, out, err) == (0, _pretty_state_reference(state), "")
    path = tmp_path / "state.json"
    rc, out, err = run(capsys, "construct", *argv, *options, "-o", str(path))
    assert (rc, out, err) == (0, "", "")
    assert path.read_text() == json.dumps(state_document(state)) + "\n"


@pytest.mark.parametrize("argv, message", [
    (["--example", "VIII"], "unknown pattern 'VIII'; choose from I, II, III, IV, V, VI, VII"),
    (["--example", "I", "--n", "6"], "pattern I needs j"),
    (["--example", "V"], "pattern V needs n"),
    (["--example", "V", "--n", "6", "--j", "2"], "pattern V does not take j"),
    (["--example", "I", "--n", "6", "--j", "2", "--band", "0", "50", "--group", "1"],
     "pattern I does not take band, group"),
    (["--example", "VI", "--n", "5"], "pattern VI is defined for n=4"),
    (["--example", "V", "--n", "1"], "a pattern needs an integer n of at least 2, got n=1"),
    (["--example", "I", "--n", "6", "--j", "0"], "a pattern needs an integer j of at least 1, got j=0"),
    (["--example", "I", "--n", "6", "--j", "6"], "j must lie in [1, 5] for n=6"),
    (["--example", "IV", "--n", "8", "--j", "5"], "j must lie in [1, 4] for n=8"),
    (["--example", "II", "--n", "10", "--band", "60", "40"], "band must satisfy 0 <= lo <= hi <= 100"),
    (["--example", "III", "--n", "5", "--group", "1,x"], "bad party 'x' in --group '1,x'"),
    (["--example", "III", "--n", "5", "--group", "1,,2"], "empty party in --group '1,,2'"),
    (["--example", "III", "--n", "5", "--group", "1,7"], "side contains parties outside 1..5: [7]"),
    (["--example", "V", "--n", "40"],
     "a specification with n=40 walks 2^39 - 1 labels; construction caps at n=20"),
    (["--example", "VI", "--margin", "0"], "margin must lie in (0, 1], got 0.0"),
    (["--example", "I", "--n", "6", "--j", "6", "--margin", "0"], "j must lie in [1, 5] for n=6"),
    (["--example", "VI", "--lam0-minus", "-1"], "lam0_minus must be finite and nonnegative, got -1.0"),
    (["--example", "VI", "--lam0-minus", "1e16"],
     "lam0_minus=1e+16 is too large: the corner gap rounds away "
     "and the state no longer realizes the specification"),
])
def test_construct_example_error_exits(tmp_path, capsys, argv, message):
    path = tmp_path / "state.json"
    rc, out, err = run(capsys, "construct", *argv, "-o", str(path))
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("source, options, message", [
    (["--random", "--n", "4"], ["--j", "2"], "--random does not take --j"),
    (["--random"], ["--band", "0", "50", "--group", "1", "--margin", "0.5", "--lam0-minus", "0"],
     "--random does not take --band, --group, --margin, --lam0-minus"),
    (["--example", "VI"], ["--seed", "0"], "--example does not take --seed"),
    (["--example", "V", "--n", "6"], ["--seed", "3", "--margin", "0.25"],
     "--example does not take --seed"),
    (["--spec"], ["--n", "7"], "--spec does not take --n"),
    (["--spec"], ["--j", "1", "--band", "0", "50", "--group", "1", "--seed", "3", "--margin", "1"],
     "--spec does not take --j, --band, --group, --seed"),
])
def test_construct_refuses_an_option_its_source_ignores(tmp_path, capsys, source, options, message):
    spec = tmp_path / "s3.json"
    spec.write_text('{"n": 3, "bits": {"1": 1, "2": 0, "3": 1}}')
    path = tmp_path / "state.json"
    argv = [*source, str(spec)] if source == ["--spec"] else source
    rc, out, err = run(capsys, "construct", *argv, *options, "-o", str(path))
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    assert not path.exists()


def test_construct_spec_bytes_and_error_exits(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 4, "bits": {str(m): m % 3 % 2 for m in range(1, 8)}}))
    pattern = Specification.from_mapping(4, {m: m % 3 % 2 for m in range(1, 8)})
    for options, realize in _REALIZE_OPTIONS:
        state = from_specification(pattern, **realize)
        rc, out, err = run(capsys, "construct", "--spec", str(spec), *options)
        assert (rc, out, err) == (0, json.dumps(state_document(state)) + "\n", "")
        rc, out, err = run(capsys, "construct", "--spec", str(spec), *options, "--pretty")
        assert (rc, out, err) == (0, _pretty_state_reference(state), "")
    missing = tmp_path / "missing.json"
    cases = [
        ("{", f"specification file {spec} is not valid JSON: "
              "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("[1]", "specification file must hold an object with n and bits"),
        ('{"n": 3}', "specification file must hold an object with n and bits"),
        ('{"n": 3, "bits": [1, 0, 1]}', "specification file needs a bits object"),
        ('{"n": 3, "bits": {"1": 1}}', "mapping must cover every label 1..3; missing [2, 3]"),
        ('{"n": 3, "bits": {"1": 1, "2": 0, "4": 1}}', "label 4 outside [1, 3] for n=3"),
        ('{"n": 3, "bits": {"1": 2, "2": 0, "3": 1}}', "specification bit 2 of label 1 is not 0 or 1"),
        ('{"n": 1, "bits": {}}', "a specification needs an integer n of at least 2, got n=1"),
    ]
    for text, message in cases:
        spec.write_text(text)
        rc, out, err = run(capsys, "construct", "--spec", str(spec))
        assert (rc, out, err) == (2, "", f"error: {message}\n"), text
    spec.write_text('{"n": 3, "bits": {"1": 1, "2": 0, "3": 1}}')
    for options, message in [
        (["--margin", "2"], "margin must lie in (0, 1], got 2.0"),
        (["--lam0-minus", "nan"], "lam0_minus must be finite and nonnegative, got nan"),
    ]:
        rc, out, err = run(capsys, "construct", "--spec", str(spec), *options)
        assert (rc, out, err) == (2, "", f"error: {message}\n")
    rc, out, err = run(capsys, "construct", "--spec", str(missing))
    assert (rc, out) == (2, "")
    assert err == (f"error: cannot read specification file {missing}: "
                   f"[Errno 2] No such file or directory: {str(missing)!r}\n")


def _pretty_report_reference(rep):
    """The analyze --grouping --pretty lines, built from the library report."""
    text = lambda g: ",".join(map(str, sorted(g)))
    lines = [f"grouping {rep.grouping}"]
    for pv in rep.pairs:
        word = "yes" if pv.distillable else "no   blocked by " + str(pv.witness)
        lines.append(f"  ({text(pv.c)}) x ({text(pv.d)})  {word}")
    lines.append("  ghz clique: " + " ".join(f"({text(g)})" for g in rep.ghz))
    return "".join(line + "\n" for line in lines)


def _pretty_pair_reference(pv):
    text = lambda g: ",".join(map(str, sorted(g)))
    word = "distillable" if pv.distillable else f"not distillable (blocked by {pv.witness})"
    return f"pair ({text(pv.c)}) x ({text(pv.d)}): {word}\n"


@pytest.mark.parametrize("name, state, specs", _SINGLE_CASES)
def test_pretty_grouping_report_and_pair_match_the_library(tmp_path, capsys, name, state, specs):
    path = str(tmp_path / f"{name}.json")
    save_state(state, path)
    state = load_state(path)
    words = set()
    for spec in specs:
        grouping = Grouping.from_sets(state.n, [map(int, g.split(",")) for g in spec.split("|")])
        rep = grouping_report(state, grouping)
        rc, out, err = run(capsys, "analyze", "--state", path, "--grouping", spec, "--pretty")
        assert (rc, out, err) == (0, _pretty_report_reference(rep), "")
        for pv in rep.pairs:
            words.add(pv.distillable)
            rc, out, err = run(capsys, "analyze", "--state", path, "--grouping", spec,
                               "--pair", str(min(pv.c)), str(min(pv.d)), "--pretty")
            assert (rc, out, err) == (0, _pretty_pair_reference(pv), "")
    assert words == {True, False}  # both wordings are met


def test_search_pretty_sentences(capsys):
    rc, out, err = run(capsys, "search", "--requirement", "example-vii", "--pretty")
    assert (rc, err) == (0, "")
    assert out == ("found a specification over 5 parties for 'example-vii':\n"
                   "  distillable labels: 1, 2, 6, 9, 10, 13, 14\n")
    rc, out, err = run(capsys, "search", "--requirement", "any-two", "--pretty")
    assert (rc, out, err) == (0, "no specification over 5 parties meets 'any-two'\n", "")
