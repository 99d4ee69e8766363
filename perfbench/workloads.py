"""The four benchmark workloads: seeded inputs, jobs, output checks, CLI commands.

Each workload follows one question of the source paper: the verdict for
every grouping (sweep), the constructive protocol (protocol), the dense
partial-transpose check (oracle) and the specification search (search).
A job is the unit that ``jobs_per_s`` counts; every job is at least
~20 ms so that a timing measures the program rather than the scheduler.

Inputs are made here, not by ``entact.construct``, so that they stay
fixed even when a later change touches the constructors.  Random states
come from a pool of ``POOL`` states per party count, and ``--seed``
picks which pool members a run uses.  ``reference.json`` covers the
whole pool: the sweep's verdict digests, and the pipelines that fail
on the protocol workload's states.

Library calls go through module attributes (``analysis.classify_groupings``)
so that the traced run's wrappers see them.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any

from accounting import Outcome
from entact import analysis, construct, model, protocols

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

POOL = 64
# Party counts of the catalog pattern V ladder the protocol workload walks.
LADDER = range(6, 15)
RECIPE = "ratio to the half-gap uniform in [0, 0.45] or [1.1, 1.55], equal odds"


def pool_state(n: int, index: int) -> model.FamilyState:
    """Member `index` of the seeded pool of random n-party states.

    Every label's coefficient sits at a ratio to the half-gap drawn from
    [0, 0.45] or [1.1, 1.55], so no verdict hinges on a tie.
    """
    rng = random.Random(f"perfbench/{n}/{index}")
    lam0_minus = rng.uniform(0.0, 0.3)
    gap = rng.uniform(0.5, 1.0)
    half = 0.5 * gap
    lam = [
        (rng.uniform(0.0, 0.45) if rng.random() < 0.5 else rng.uniform(1.1, 1.55)) * half
        for _ in range((1 << (n - 1)) - 1)
    ]
    total = 2.0 * lam0_minus + gap + 2.0 * sum(lam)
    state = model.FamilyState(
        n, (lam0_minus + gap) / total, lam0_minus / total, tuple(v / total for v in lam)
    )
    problems = model.validate(state)
    if problems:
        raise ValueError(f"pool state {n}/{index} is invalid: {'; '.join(problems)}")
    return state


def pick(seed: int, purpose: str, count: int) -> list[int]:
    """Pool indices for one run; the same seed gives the same indices."""
    return random.Random(f"{purpose}/{seed}").sample(range(POOL), count)


def _sweep_line(grouping, pairs, ghz) -> str:
    """One report as text: groups, then per pair its verdict and lowest blocking label.

    `grouping` and `ghz` are lists of sorted party lists; `pairs` yields
    (distillable, witness label or None) in the report's pair order, which
    the grouping fixes.
    """
    groups = "|".join(",".join(map(str, g)) for g in grouping)
    verdicts = " ".join(("1" if ok else "0") + ("" if w is None else f"/{w}") for ok, w in pairs)
    clique = "|".join(",".join(map(str, g)) for g in ghz)
    return f"{groups};{verdicts};{clique}\n"


def library_sweep_digest(reports) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(_sweep_line(
            rep.grouping.as_lists(),
            ((pv.distillable, pv.witness.mask if pv.witness else None) for pv in rep.pairs),
            [sorted(g) for g in rep.ghz],
        ).encode())
    return h.hexdigest()


def cli_sweep_digest(doc: dict) -> str:
    h = hashlib.sha256()
    for rep in doc["reports"]:
        h.update(_sweep_line(
            rep["grouping"],
            ((p["distillable"], p["witness"]["mask"] if p["witness"] else None)
             for p in rep["pairs"]),
            rep["ghz"],
        ).encode())
    return h.hexdigest()


def protocol_tasks(n: int) -> list[tuple[model.Grouping, frozenset, frozenset]]:
    """Every grouping of n parties with every pair of its groups, in a fixed order."""
    tasks = []
    for part in analysis.iter_set_partitions(n):
        grouping = model.Grouping.from_sets(n, part)
        groups = grouping.groups
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                tasks.append((grouping, groups[i], groups[j]))
    return tasks


def pattern_v_ladder() -> list[tuple[int, model.FamilyState, model.Grouping]]:
    """Catalog pattern V with grouping 1|2|{3..n}, for each n of LADDER."""
    return [
        (n, construct.example_state("V", n),
         model.Grouping.from_sets(n, [[1], [2], range(3, n + 1)]))
        for n in LADDER
    ]


def pipeline_result(state, grouping, c, d) -> bool | None:
    """distill_pipeline's `succeeded`, or None when it raises DegenerateStateError."""
    try:
        return protocols.distill_pipeline(state, grouping, c, d).succeeded
    except protocols.DegenerateStateError:
        return None


def is_known_failure(expected: bool, got: bool | None) -> bool:
    """The documented defect: a distillable pair whose pipeline fails or raises."""
    return expected is True and got is not True


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def state_document(state: model.FamilyState) -> dict[str, Any]:
    """The CLI's state-file schema, written here so fixtures need no CLI code."""
    return {"schema": 1, "kind": "state", "n": state.n, "lam0_plus": state.lam0_plus,
            "lam0_minus": state.lam0_minus, "lam": list(state.lam)}


def _single(ok: bool, what: str) -> Outcome:
    return Outcome(1, 0) if ok else Outcome(1, 1, 0, [what])


class Workload:
    """Inputs for one seed plus the jobs, checks and CLI command on them.

    `setup` is the work that `setup_s` times; `prepare` computes the
    expected results and is not timed.
    """

    name = ""
    traced_jobs = 1
    # The timed phase runs jobs timed_from, timed_from + 1, ...
    timed_from = 0
    # Timed CLI launches per run, half before and half after the timed phase.
    cli_launches = 16
    # Distinct pool states per run.  Job cost varies between states (by
    # 8% for sweep, 28% for protocol, coefficient of variation), so a run
    # averages over many of them to keep the seed from moving jobs_per_s;
    # each still has to repeat several times in the timed phase, since
    # jobs_per_s takes every input's fastest repeat.
    states_per_run = 16

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def build_fixtures(self) -> None:
        """The part of `setup` that uses entact.construct; traced runs repeat it."""

    def fixtures(self) -> dict[str, dict]:
        """State documents the CLI command reads, by file name."""
        return {}

    def prepare(self) -> None:
        pass

    def input_key(self, k: int) -> Any:
        """Which input job k runs on; jobs with the same key repeat the same work."""
        return k % len(self.states)

    def job(self, k: int) -> Any:
        raise NotImplementedError

    def check(self, k: int, out: Any) -> Outcome:
        raise NotImplementedError

    def cli_args(self, paths: dict[str, str]) -> list[str]:
        raise NotImplementedError

    def check_cli(self, doc: dict) -> Outcome:
        raise NotImplementedError


class Sweep(Workload):
    """classify_groupings over all 4,140 partitions of one n = 8 state per job."""

    name = "sweep"
    traced_jobs = 2
    states_per_run = 8

    def setup(self) -> None:
        self.indices = pick(self.seed, "sweep", self.states_per_run)
        self.states = [pool_state(8, i) for i in self.indices]
        self.cli_index = pick(self.seed, "sweep-cli", 1)[0]
        self.cli_state = pool_state(7, self.cli_index)

    def fixtures(self) -> dict[str, dict]:
        return {"sweep7.json": state_document(self.cli_state)}

    def prepare(self) -> None:
        ref = load_reference()["sweep"]
        self.expected = [ref["8"][str(i)] for i in self.indices]
        self.expected_cli = ref["7"][str(self.cli_index)]

    def job(self, k: int) -> Any:
        return list(analysis.classify_groupings(self.states[k % len(self.states)]))

    def check(self, k: int, out: Any) -> Outcome:
        ok = len(out) == 4140 and library_sweep_digest(out) == self.expected[k % len(self.states)]
        return _single(ok, f"sweep job {k}: verdict digest differs from the reference")

    def cli_args(self, paths: dict[str, str]) -> list[str]:
        return ["analyze", "--state", paths["sweep7.json"], "--all-groupings"]

    def check_cli(self, doc: dict) -> Outcome:
        ok = doc.get("count") == 877 and cli_sweep_digest(doc) == self.expected_cli
        return _single(ok, "analyze --all-groupings: verdict digest differs from the reference")


class Protocol(Workload):
    """distill_pipeline for every grouping and pair of one n = 6 state per job.

    Job 0 instead walks the catalog pattern V ladder 1|2|{3..n} for
    n = 6..14; it keeps the known pipeline defect in view.  It is the
    warm-up job, checked but outside the timed phase.

    A pipeline that disagrees with necessary_distillable is the known
    defect only where reference.json lists it and the pair is
    distillable; any other disagreement makes the run incorrect.
    """

    name = "protocol"
    traced_jobs = 4
    timed_from = 1
    states_per_run = 48
    # Its launch is the shortest, mostly interpreter start-up, and its
    # median needs more samples to hold still.
    cli_launches = 32

    def setup(self) -> None:
        self.indices = pick(self.seed, "protocol", self.states_per_run)
        self.states = [pool_state(6, i) for i in self.indices]
        self.tasks = protocol_tasks(6)
        self.build_fixtures()

    def build_fixtures(self) -> None:
        self.ladder = pattern_v_ladder()
        self.cli_state = construct.example_state("V", 10)

    def fixtures(self) -> dict[str, dict]:
        return {"pattern_v10.json": state_document(self.cli_state)}

    def prepare(self) -> None:
        ref = load_reference()["protocol"]
        self.expected = [
            [analysis.necessary_distillable(state, g, c, d) for g, c, d in self.tasks]
            for state in self.states
        ]
        self.known = [set(ref["6"][str(i)]) for i in self.indices]
        self.expected_ladder = [
            analysis.necessary_distillable(state, g, {1}, {2}) for _, state, g in self.ladder
        ]
        self.known_ladder = {n - LADDER.start for n in ref["ladder"]}
        g10 = self.ladder[10 - LADDER.start][2]
        self.expected_cli = analysis.necessary_distillable(self.cli_state, g10, {1}, {2})
        self.known_cli = 10 in ref["ladder"]

    def input_key(self, k: int) -> Any:
        return "ladder" if k == 0 else (k - 1) % len(self.states)

    def job(self, k: int) -> Any:
        if k == 0:
            pairs = [(state, g, frozenset({1}), frozenset({2})) for _, state, g in self.ladder]
        else:
            state = self.states[(k - 1) % len(self.states)]
            pairs = [(state, g, c, d) for g, c, d in self.tasks]
        return [pipeline_result(state, g, c, d) for state, g, c, d in pairs]

    def check(self, k: int, out: Any) -> Outcome:
        if k == 0:
            want, known = self.expected_ladder, self.known_ladder
        else:
            i = (k - 1) % len(self.states)
            want, known = self.expected[i], self.known[i]
        if len(out) != len(want):
            return Outcome(len(want), len(want), 0, [f"protocol job {k}: {len(out)} results"])
        result = Outcome(len(want), 0)
        for task, (got, exp) in enumerate(zip(out, want)):
            if got is exp:
                continue
            result.failed += 1
            if task in known and is_known_failure(exp, got):
                result.known += 1
            else:
                result.problems.append(f"protocol job {k}, task {task}: pipeline gave {got}, "
                                       f"necessary_distillable {exp}, not a listed failure")
        return result

    def cli_args(self, paths: dict[str, str]) -> list[str]:
        return ["protocol", "--state", paths["pattern_v10.json"],
                "--grouping", "1|2|3,4,5,6,7,8,9,10", "--pair", "1", "2", "--json-trace"]

    def check_cli(self, doc: dict) -> Outcome:
        if doc.get("kind") != "pipeline" or len(doc.get("steps", ())) < 2:
            return _single(False, "protocol --json-trace: malformed trace")
        got = doc.get("succeeded")
        if got is self.expected_cli:
            return Outcome(1, 0)
        if self.known_cli and is_known_failure(self.expected_cli, got):
            return Outcome(1, 1, 1)
        return _single(False, f"protocol --json-trace: succeeded {got}, not a listed failure")


class Oracle(Workload):
    """ppt_agreement_report on one n = 7 state per job: 63 dense eigensolves."""

    name = "oracle"
    traced_jobs = 2

    def setup(self) -> None:
        from entact import oracle  # numpy is part of this workload's set-up

        self.oracle = oracle
        self.indices = pick(self.seed, "oracle", self.states_per_run)
        self.states = [pool_state(7, i) for i in self.indices]
        self.cli_state = pool_state(7, pick(self.seed, "oracle-cli", 1)[0])

    def fixtures(self) -> dict[str, dict]:
        return {"oracle7.json": state_document(self.cli_state)}

    def job(self, k: int) -> Any:
        return self.oracle.ppt_agreement_report(self.states[k % len(self.states)])

    def check(self, k: int, out: Any) -> Outcome:
        ok = len(out.checks) == 63 and out.all_agree
        return _single(ok, f"oracle job {k}: dense route disagrees with the indicators")

    def cli_args(self, paths: dict[str, str]) -> list[str]:
        return ["verify", "--state", paths["oracle7.json"]]

    def check_cli(self, doc: dict) -> Outcome:
        ok = doc.get("all_agree") is True and len(doc.get("checks", ())) == 63
        return _single(ok, "verify: dense route disagrees with the indicators")


class Search(Workload):
    """Both built-in searches at n = 5 per job; any-two exhausts 32,768 candidates."""

    name = "search"
    traced_jobs = 1

    def setup(self) -> None:
        self.requirements = analysis.BUILTIN_REQUIREMENTS

    def prepare(self) -> None:
        self.pattern_vii = construct.example_pattern("VII")

    def input_key(self, k: int) -> Any:
        return 0

    def job(self, k: int) -> Any:
        search = analysis.search_specifications
        return (search(5, self.requirements["any-two"]()),
                search(5, self.requirements["example-vii"]()))

    def check(self, k: int, out: Any) -> Outcome:
        any_two, vii = out
        ok = any_two is None and vii == self.pattern_vii
        return Outcome(2, 0) if ok else Outcome(2, 2, 0, [f"search job {k}: wrong patterns"])

    def cli_args(self, paths: dict[str, str]) -> list[str]:
        return ["search", "--requirement", "example-vii"]

    def check_cli(self, doc: dict) -> Outcome:
        pattern = doc.get("pattern") or {}
        ok = doc.get("found") is True and pattern.get("value") == self.pattern_vii.to_int()
        return _single(ok, "search --requirement example-vii: not pattern VII")


WORKLOADS = {w.name: w for w in (Sweep, Protocol, Oracle, Search)}
