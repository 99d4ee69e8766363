"""Command-line front end.

Subcommands: construct (make states), analyze (grouping verdicts),
protocol (run the distillation pipeline), verify (partial-transpose
cross-check), search (hunt for indicator specifications).  Output is
JSON on stdout unless --pretty asks for tables.  Exit codes: 0 for
success, 1 when an asserted verdict is false or the partial-transpose
route disagrees, 2 for usage and validation problems, 141 (128 + SIGPIPE)
when the reader closes stdout before the output ends.

State files are JSON documents:

    {"schema": 1, "n": 3, "lam0_plus": 0.5, "lam0_minus": 0.0,
     "lam": [0.0, 0.25, 0.0]}

where lam[i] belongs to splitting label i + 1.  Specification files for
`construct --spec` look like {"n": 3, "bits": {"1": 1, "2": 0, "3": 1}}
and must cover every label, each key the label in plain decimal ("3", not "03").
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Any, Iterable

from . import __version__
from .analysis import (
    _SWEEP_GUARD,
    BUILTIN_REQUIREMENTS,
    GroupingReport,
    PairVerdict,
    _check_sweep,
    _partition_count,
    classify_groupings,
    grouping_report,
    search_specifications,
)
from .construct import example_pattern, from_specification, random_family_state
from .model import FamilyState, Grouping, Specification, Splitting, _party_text, validate
from .protocols import PipelineTrace, distill_pipeline

STATE_SCHEMA = 1


def state_document(state: FamilyState) -> dict[str, Any]:
    return {
        "schema": STATE_SCHEMA,
        "kind": "state",
        "n": state.n,
        "lam0_plus": state.lam0_plus,
        "lam0_minus": state.lam0_minus,
        "lam": list(state.lam),
    }


def state_from_document(doc: Any) -> FamilyState:
    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != STATE_SCHEMA:
        raise ValueError(f"unsupported state schema {schema!r}")
    missing = {"n", "lam0_plus", "lam0_minus", "lam"} - set(doc)
    if missing:
        raise ValueError(f"state document lacks {', '.join(sorted(missing))}")
    if not isinstance(doc["lam"], list):
        raise ValueError("state document: lam is not a list")
    state = FamilyState(doc["n"], doc["lam0_plus"], doc["lam0_minus"], doc["lam"])
    problems = validate(state)
    if problems:
        raise ValueError("invalid state: " + "; ".join(problems))
    # a JSON integer weight is read as the float it names
    return FamilyState(state.n, float(state.lam0_plus), float(state.lam0_minus),
                       tuple(map(float, state.lam)))


def _read_json(path: str, what: str) -> Any:
    """Parse a JSON file; errors name it as `what` ("state", "specification")."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path} is not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, or a number past the digit limit
        raise ValueError(f"cannot read {what} file {path}: {exc}") from None


def load_state(path: str) -> FamilyState:
    return state_from_document(_read_json(path, "state"))


def save_state(state: FamilyState, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_document(state), fh)
        fh.write("\n")


def _load_specification(path: str) -> Specification:
    doc = _read_json(path, "specification")
    if not isinstance(doc, dict) or "n" not in doc or "bits" not in doc:
        raise ValueError("specification file must hold an object with n and bits")
    bits = doc["bits"]
    if not isinstance(bits, dict):
        raise ValueError("specification file needs a bits object")
    mapping = {}
    for key, value in bits.items():
        # a key is its label's plain decimal text: "03", " 3" or "+3" would pass for 3
        try:
            label = int(key)
        except ValueError:
            label = None
        if label is None or str(label) != key:
            raise ValueError(f"bits entry {key!r} is not a label")
        mapping[label] = value
    # from_mapping rejects a bad n, shape, label or bit
    return Specification.from_mapping(doc["n"], mapping)


def _parse_parties(text: str, where: str) -> list[int]:
    """Comma list of party numbers; errors name the item and `where` it came from."""
    members = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise ValueError(f"empty party in {where}")
        try:
            members.append(int(item))
        except ValueError:
            raise ValueError(f"bad party {item!r} in {where}") from None
    return members


def _parse_grouping(n: int, text: str) -> Grouping:
    where = f"grouping {text!r}"
    return Grouping.from_sets(n, [_parse_parties(chunk, where) for chunk in text.split("|")])


def _pair_groups(grouping: Grouping, pair: list[int]) -> tuple[frozenset[int], frozenset[int]]:
    """The two groups named by `--pair I J`, which must be parties in different groups."""
    first, second = pair
    group = grouping.group_of(first)
    if second in group:
        raise ValueError(
            f"parties {first} and {second} are in the same group {_party_text(group)}"
        )
    return group, grouping.group_of(second)


def _splitting_fields(split) -> dict[str, Any]:
    return {"mask": split.mask, "splitting": str(split)}


_JSON_BOOL = {True: "true", False: "false"}


class _VerdictText:
    """JSON text of pair verdicts and grouping reports, the bytes json.dumps gives their fields.

    Each group's party list and each witness is encoded once per command
    and kept, keyed by the group and by the witness label; a verdict's
    text is joined from those fragments.  Over n parties there are at
    most 2^n - 1 groups and 2^(n-1) - 1 witnesses, so neither table needs
    a bound.
    """

    def __init__(self) -> None:
        self._group = cache(lambda group: json.dumps(sorted(group)))
        self._witnesses: dict[int, str] = {}

    def _group_list(self, groups: Iterable[frozenset[int]]) -> str:
        return "[" + ", ".join(map(self._group, groups)) + "]"

    def pair(self, pv: PairVerdict) -> str:
        split = pv.witness
        if split is None:
            witness = "null"
        else:
            witness = self._witnesses.get(split.mask)
            if witness is None:
                witness = self._witnesses[split.mask] = json.dumps(_splitting_fields(split))
        return (f'{{"c": {self._group(pv.c)}, "d": {self._group(pv.d)}, '
                f'"distillable": {_JSON_BOOL[pv.distillable]}, "witness": {witness}}}')

    def report(self, rep: GroupingReport) -> str:
        pairs = ", ".join(map(self.pair, rep.pairs))
        return (f'{{"grouping": {self._group_list(rep.grouping.groups)}, "pairs": [{pairs}], '
                f'"ghz": {self._group_list(rep.ghz)}, '
                f'"any_distillable": {_JSON_BOOL[rep.any_distillable]}}}')


def _emit(doc: dict[str, Any]) -> None:
    # dumps runs the C encoder; dump would stream through the Python one
    sys.stdout.write(json.dumps(doc) + "\n")


def _emit_with(head: dict[str, Any], text: str) -> None:
    """Write the bytes of _emit(head | fields), given the JSON text of the fields' object."""
    sys.stdout.write(json.dumps(head)[:-1] + ", " + text[1:] + "\n")


def _emit_stream(head: dict[str, Any], key: str, texts: Iterable[str]) -> None:
    """Write the bytes of _emit(head | {key: items}), given each item's JSON text in turn."""
    out = sys.stdout
    out.write(json.dumps(head)[:-1] + f", {json.dumps(key)}: [")
    sep = ""
    for text in texts:
        out.write(sep + text)
        sep = ", "
    out.write("]}\n")


def _print_state_pretty(state: FamilyState) -> None:
    print(f"parties        {state.n}")
    print(f"lam0_plus      {state.lam0_plus:.12g}")
    print(f"lam0_minus     {state.lam0_minus:.12g}")
    print(f"delta          {state.delta:.12g}")
    print(f"{'label':>5}  {'coefficient':>14}  {'indicator':>9}  splitting")
    for mask in range(1, state.label_count + 1):
        split = Splitting(state.n, mask)
        print(
            f"{mask:>5}  {state.coefficient(mask):>14.10g}  "
            f"{state.indicator(mask):>9}  {split}"
        )


# the options each source of `construct` would ignore, and so refuses
_IGNORED = {"random": ("j", "band", "group", "margin", "lam0_minus"), "example": ("seed",),
            "spec": ("n", "j", "band", "group", "seed")}


def _cmd_construct(args: argparse.Namespace) -> int:
    source = "random" if args.random else "example" if args.example is not None else "spec"
    refused = [f"--{name.replace('_', '-')}" for name in _IGNORED[source]
               if getattr(args, name) is not None]
    if refused:
        raise ValueError(f"--{source} does not take {', '.join(refused)}")
    if args.random:
        if args.n is None:
            raise ValueError("--random needs --n")
        state = random_family_state(args.n, 0 if args.seed is None else args.seed)
    else:
        if args.example is not None:
            band = tuple(args.band) if args.band is not None else None
            group = None
            if args.group is not None:
                group = _parse_parties(args.group, f"--group {args.group!r}")
            pattern = example_pattern(args.example, args.n, j=args.j, band=band, group=group)
        else:
            pattern = _load_specification(args.spec)
        state = from_specification(pattern, margin=0.5 if args.margin is None else args.margin,
                                   lam0_minus=0.0 if args.lam0_minus is None else args.lam0_minus)
    if args.output:
        save_state(state, args.output)
        return 0
    if args.pretty:
        _print_state_pretty(state)
    else:
        _emit(state_document(state))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    state = load_state(args.state)
    if args.all_groupings:
        if args.assert_ or args.pair:
            raise ValueError("--assert and --pair need a single --grouping")
        guard = _SWEEP_GUARD if args.guard is None else args.guard
        _check_sweep(state.n, guard, "--guard")
        reports = classify_groupings(state, guard=guard, two_groups_only=args.two_groups_only)
        if args.pretty:
            # each group's text once per sweep, not once per pair
            party_text = cache(_party_text)
            for rep in reports:
                flags = " ".join(
                    f"({party_text(pv.c)})x({party_text(pv.d)})"
                    f"={'yes' if pv.distillable else 'no'}"
                    for pv in rep.pairs
                )
                print(f"{str(rep.grouping):<24} {flags}")
        else:
            count = _partition_count(state.n, 2 if args.two_groups_only else None)
            _emit_stream({"schema": STATE_SCHEMA, "kind": "grouping-sweep", "n": state.n,
                          "count": count}, "reports", map(_VerdictText().report, reports))
        return 0

    if args.two_groups_only or args.guard is not None:
        raise ValueError("--two-groups-only and --guard need --all-groupings")
    grouping = _parse_grouping(state.n, args.grouping)
    rep = grouping_report(state, grouping)
    if args.pair:
        pv = rep.pair(*_pair_groups(grouping, args.pair))
        if args.pretty:
            wit = f" (blocked by {pv.witness})" if pv.witness else ""
            word = "distillable" if pv.distillable else "not distillable"
            print(f"pair ({_party_text(pv.c)}) x ({_party_text(pv.d)}): {word}{wit}")
        else:
            _emit_with({"schema": STATE_SCHEMA, "kind": "pair-verdict", "n": state.n,
                        "grouping": grouping.as_lists()}, _VerdictText().pair(pv))
        return 0 if (pv.distillable or not args.assert_) else 1

    if args.pretty:
        print(f"grouping {grouping}")
        for pv in rep.pairs:
            wit = f"  blocked by {pv.witness}" if pv.witness else ""
            word = "yes" if pv.distillable else "no "
            print(f"  ({_party_text(pv.c)}) x ({_party_text(pv.d)})  {word}{wit}")
        print("  ghz clique: " + " ".join(f"({_party_text(g)})" for g in rep.ghz))
    else:
        _emit_with({"schema": STATE_SCHEMA, "kind": "grouping-report", "n": state.n},
                   _VerdictText().report(rep))
    if args.assert_ and not all(pv.distillable for pv in rep.pairs):
        return 1
    return 0


def _trace_fields(trace: PipelineTrace, with_states: bool) -> dict[str, Any]:
    steps = []
    for step in trace.steps:
        entry: dict[str, Any] = {"kind": step.kind, "note": step.note, "n": step.state.n,
                                 "digest": step.digest}
        if step.party is not None:
            entry["party"] = step.party
        if step.amplification is not None:
            entry["amplification"] = step.amplification
        if step.order is not None:
            entry["order"] = list(step.order)
        if step.parties is not None:
            entry["parties"] = list(step.parties)
        if with_states:
            entry["state"] = state_document(step.state)
        steps.append(entry)
    doc: dict[str, Any] = {
        "schema": STATE_SCHEMA,
        "kind": "pipeline",
        "grouping": trace.grouping.as_lists(),
        "c": sorted(trace.c),
        "d": sorted(trace.d),
        "succeeded": trace.succeeded,
        "witness": _splitting_fields(trace.witness) if trace.witness else None,
        "final_split": _splitting_fields(trace.final_split) if trace.final_split else None,
        "steps": steps,
    }
    if trace.outcome is not None:
        out = trace.outcome
        doc["outcome"] = {
            "lam0_plus": out.lam0_plus,
            "lam0_minus": out.lam0_minus,
            "lam_pair": out.lam[0],
            "fidelity": out.fidelity,
            "distillable": trace.succeeded,
        }
    else:
        doc["outcome"] = None
    return doc


def _cmd_protocol(args: argparse.Namespace) -> int:
    state = load_state(args.state)
    grouping = _parse_grouping(state.n, args.grouping)
    trace = distill_pipeline(state, grouping, *_pair_groups(grouping, args.pair))
    if args.pretty:
        for step in trace.steps:
            extra = f"  [{step.digest}]" if len(step.digest) <= 32 else ""
            print(f"{step.kind:<8} {step.note}{extra}")
        if trace.witness is not None:
            print(f"blocked by {trace.witness}")
        elif trace.outcome is not None:
            word = "distillable" if trace.succeeded else "not distillable"
            print(f"outcome: fidelity {trace.outcome.fidelity:.6g}, {word}")
    else:
        _emit(_trace_fields(trace, args.json_trace))
    return 0 if (trace.succeeded or not args.assert_) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import ppt_agreement_report

    state = load_state(args.state)
    report = ppt_agreement_report(state, tol=args.tol)
    if args.pretty:
        for check in report.checks:
            mark = "ok " if check.agree else "BAD"
            print(
                f"{mark} {str(check.split):<24} indicator {check.indicator} "
                f"min-eig {check.min_eigenvalue:+.3e}"
            )
        print("agreement: " + ("complete" if report.all_agree else "BROKEN"))
    else:
        _emit(
            {
                "schema": STATE_SCHEMA,
                "kind": "verify",
                "n": report.n,
                "tol": report.tol,
                "all_agree": report.all_agree,
                "checks": [
                    {
                        "mask": c.split.mask,
                        "splitting": str(c.split),
                        "indicator": c.indicator,
                        "min_eigenvalue": c.min_eigenvalue,
                        "agree": c.agree,
                    }
                    for c in report.checks
                ],
            }
        )
    return 0 if report.all_agree else 1


def _cmd_search(args: argparse.Namespace) -> int:
    requirement = BUILTIN_REQUIREMENTS[args.requirement]()
    result = search_specifications(requirement.n, requirement)
    if args.pretty:
        if result is None:
            print(f"no specification over {requirement.n} parties meets '{args.requirement}'")
        else:
            print(f"found a specification over {requirement.n} parties for '{args.requirement}':")
            print(f"  distillable labels: {', '.join(map(str, result.ones()))}")
    else:
        doc: dict[str, Any] = {
            "schema": STATE_SCHEMA,
            "kind": "search",
            "n": requirement.n,
            "requirement": args.requirement,
            "found": result is not None,
        }
        doc["pattern"] = (
            None
            if result is None
            else {"n": result.n, "value": result.to_int(), "ones": list(result.ones())}
        )
        _emit(doc)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entact",
        description="Family states over n parties: construction, grouping verdicts, "
        "distillation protocols, partial-transpose verification, specification search.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a state and write it as JSON")
    source = con.add_mutually_exclusive_group(required=True)
    source.add_argument("--example", metavar="ID", help="catalog pattern I..VII")
    source.add_argument("--spec", metavar="FILE", help="JSON indicator specification")
    source.add_argument("--random", action="store_true", help="seeded random state")
    con.add_argument("--n", type=int, help="party count (pattern dependent)")
    con.add_argument("--j", type=int, help="size parameter for patterns I and IV")
    con.add_argument("--band", type=float, nargs=2, metavar=("LO", "HI"),
                     help="percentage band for pattern II")
    con.add_argument("--group", metavar="PARTIES", help="comma list for pattern III")
    con.add_argument("--margin", type=float,
                     help="separable-label clearance in (0, 1] (default 0.5)")
    con.add_argument("--lam0-minus", type=float, dest="lam0_minus",
                     help="unnormalized weight of the odd corner (default 0)")
    con.add_argument("--seed", type=int, help="seed for --random (default 0)")
    con.add_argument("-o", "--output", metavar="FILE", help="write the state here")
    con.add_argument("--pretty", action="store_true", help="table instead of JSON")
    con.set_defaults(func=_cmd_construct)

    ana = sub.add_parser("analyze", help="grouping verdicts for a state")
    ana.add_argument("--state", required=True, metavar="FILE")
    which = ana.add_mutually_exclusive_group(required=True)
    which.add_argument("--grouping", metavar="SPEC", help="groups like '1,2|3|4,5'")
    which.add_argument("--all-groupings", action="store_true",
                       help="sweep every partition of the parties")
    ana.add_argument("--two-groups-only", action="store_true",
                     help="restrict the sweep to two-group partitions")
    ana.add_argument("--pair", type=int, nargs=2, metavar=("I", "J"),
                     help="report only the pair of groups holding parties I and J")
    ana.add_argument("--guard", type=int,
                     help=f"party-count guard for the sweep (default {_SWEEP_GUARD})")
    ana.add_argument("--assert", action="store_true", dest="assert_",
                     help="exit 1 unless the reported verdicts are all true")
    ana.add_argument("--pretty", action="store_true", help="tables instead of JSON")
    ana.set_defaults(func=_cmd_analyze)

    pro = sub.add_parser("protocol", help="run the distillation pipeline for one pair")
    pro.add_argument("--state", required=True, metavar="FILE")
    pro.add_argument("--grouping", required=True, metavar="SPEC")
    pro.add_argument("--pair", type=int, nargs=2, required=True, metavar=("I", "J"),
                     help="parties naming the two groups to connect")
    pro.add_argument("--json-trace", action="store_true", dest="json_trace",
                     help="include every intermediate state in the JSON")
    pro.add_argument("--assert", action="store_true", dest="assert_",
                     help="exit 1 when the pipeline does not succeed")
    pro.add_argument("--pretty", action="store_true", help="step table instead of JSON")
    pro.set_defaults(func=_cmd_protocol)

    ver = sub.add_parser("verify", help="cross-check the indicators against partial transposes (up to 16 parties)")
    ver.add_argument("--state", required=True, metavar="FILE")
    ver.add_argument("--tol", type=float, default=1e-10,
                     help="eigenvalue tolerance (default 1e-10)")
    ver.add_argument("--pretty", action="store_true", help="table instead of JSON")
    ver.set_defaults(func=_cmd_verify)

    sea = sub.add_parser("search", help="first specification meeting a built-in requirement")
    sea.add_argument("--requirement", required=True, choices=sorted(BUILTIN_REQUIREMENTS),
                     help="which built-in requirement to satisfy")
    sea.add_argument("--pretty", action="store_true", help="sentence instead of JSON")
    sea.set_defaults(func=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's last flush
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader stopped early (`| head`); the rest goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
