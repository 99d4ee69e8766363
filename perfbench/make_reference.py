"""Write reference.json: expected results for every pool state.

Run once from the root of a checkout, at a commit whose verdicts are
trusted (the file in this directory was made at the commit that added
the benchmark):

    python3 perfbench/make_reference.py

It records two things.  For the sweep, a verdict digest per n = 7 and
n = 8 pool state, so a change to any verdict, witness or GHZ clique
shows as a failure.  For the protocol workload, the pipelines that show
the known defect: per n = 6 pool state the indices into
``workloads.protocol_tasks(6)`` whose pair is distillable but whose
pipeline fails or raises, and the same for the pattern V ladder by n.
Only those count as the known defect; any other disagreement between a
pipeline and necessary_distillable makes a run incorrect.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from entact import analysis  # noqa: E402

import workloads  # noqa: E402


def known_failures(cases) -> list:
    """Keys of the (key, state, grouping, c, d) cases that show the known defect."""
    out = []
    for key, state, g, c, d in cases:
        expected = analysis.necessary_distillable(state, g, c, d)
        if workloads.is_known_failure(expected, workloads.pipeline_result(state, g, c, d)):
            out.append(key)
    return out


def main() -> int:
    sweep = {}
    for n in (7, 8):
        sweep[str(n)] = {
            str(i): workloads.library_sweep_digest(
                analysis.classify_groupings(workloads.pool_state(n, i)))
            for i in range(workloads.POOL)
        }
    tasks = workloads.protocol_tasks(6)
    protocol = {"6": {}}
    for i in range(workloads.POOL):
        state = workloads.pool_state(6, i)
        protocol["6"][str(i)] = known_failures(
            (t, state, g, c, d) for t, (g, c, d) in enumerate(tasks))
    protocol["ladder"] = known_failures(
        (n, state, g, {1}, {2}) for n, state, g in workloads.pattern_v_ladder())
    doc = {"recipe": workloads.RECIPE, "pool": workloads.POOL, "sweep": sweep,
           "protocol": protocol}
    text = json.dumps(doc, indent=1)
    workloads.REFERENCE_FILE.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
