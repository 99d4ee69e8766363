"""Command-line behavior, driven through main() in process."""
from __future__ import annotations

import json

import pytest

from entact import classify_groupings, example_state, random_family_state
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


def test_state_file_entries_must_be_json_numbers(tmp_path, capsys):
    good = state_document(example_state("VI"))
    path = tmp_path / "state.json"
    cases = [
        ("lam0_plus", "1", "lam0_plus"),
        ("lam0_minus", False, "lam0_minus"),
        ("lam0_minus", None, "lam0_minus"),
        ("lam", ["0"] + good["lam"][1:], "lam[0]"),
        ("lam", good["lam"][:2] + [True] + good["lam"][3:], "lam[2]"),
        ("lam0_plus", 10**400, "lam0_plus"),
    ]
    for field, value, name in cases:
        path.write_text(json.dumps({**good, field: value}))
        rc, out, err = run(capsys, "analyze", "--state", str(path), "--grouping", "1|2|3,4")
        assert rc == 2 and out == "" and name in err, (field, value, err)
    # JSON true is no integer, though Python's True == 1
    for field, value, message in (
        ("schema", True, "state schema True"),
        ("n", True, "n is True, not an integer"),
        ("n", 4.0, "n is 4.0, not an integer"),
    ):
        path.write_text(json.dumps({**good, field: value}))
        rc, out, err = run(capsys, "analyze", "--state", str(path), "--grouping", "1|2|3,4")
        assert rc == 2 and out == "" and message in err, (field, value, err)
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


def _sweep_document(state, two_groups_only):
    """The sweep document built from the library, field by field."""
    reports = [
        {
            "grouping": rep.grouping.as_lists(),
            "pairs": [
                {
                    "c": sorted(pv.c),
                    "d": sorted(pv.d),
                    "distillable": pv.distillable,
                    "witness": None if pv.witness is None
                    else {"mask": pv.witness.mask, "splitting": str(pv.witness)},
                }
                for pv in rep.pairs
            ],
            "ghz": [sorted(g) for g in rep.ghz],
            "any_distillable": rep.any_distillable,
        }
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
    assert "pass --guard 4 to confirm" in err


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
        (("1", "9"), "--pair party 9 is outside 1..4"),
    ],
)
def test_pair_errors_name_the_fault(vi_state_file, capsys, command, pair, message):
    rc, out, err = run(
        capsys, command, "--state", vi_state_file, "--grouping", "1,2|3|4", "--pair", *pair,
    )
    assert rc == 2 and out == ""
    assert f"error: {message}" in err


def test_protocol_json_success(vi_state_file, capsys):
    rc, out, _ = run(
        capsys, "protocol", "--state", vi_state_file,
        "--grouping", "1|2|3,4", "--pair", "1", "2", "--assert",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "pipeline"
    assert doc["succeeded"] is True
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
