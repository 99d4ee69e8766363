"""Benchmark for entact: four workloads, end-to-end metrics and a traced run per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds diagnostics (host reference, raw wall times).  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  See
README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import os

# One BLAS thread: the default of two doubles the oracle's CPU for the same
# wall time and contends for the second core.  Set before numpy can load.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

import tracing  # noqa: E402
from accounting import Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_PROBES = 16
# The host reference: fixed pure-Python work, building a dict on REF_KEYS
# and looking every key up.  Timings are rescaled to a host on which it
# takes NOMINAL_REF_S.  Dict work tracks the jobs' slowdowns on a shared
# host more closely than an arithmetic loop does.
REF_KEYS = tuple((i, str(i)) for i in range(3000))
NOMINAL_REF_S = 0.0006
TRACE_PASSES = 3
SUBPROCESS_TIMEOUT_S = 120


def monotonic() -> float:
    """System-wide clock, comparable between this process and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def ref_s() -> float:
    """The host's current speed: the median time of five runs of the reference work."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        table = {key: i for i, key in enumerate(REF_KEYS)}
        acc = 0
        for key in REF_KEYS:
            acc += table[key]
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def nominal(seconds: float, before: float, after: float) -> float:
    """Rescale a wall time measured between two reference runs to the nominal host.

    A shared virtual machine can run everything at speeds that drift by
    up to 1.8x over seconds to minutes.  A job's time over the adjacent
    reference runs then stays within a few per cent while its wall time
    does not, so every timing metric is reported on the nominal host.
    """
    return seconds * NOMINAL_REF_S * 2.0 / (before + after)


def import_workloads():
    """Import the benchmark's workloads against the checkout's own sources."""
    if not (SRC / "entact" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'entact'} not found; run from the root of an entact checkout")
    sys.path.insert(0, str(SRC))
    import entact

    if Path(entact.__file__).resolve().parent != SRC / "entact":
        sys.exit(f"error: imported entact from {entact.__file__}, not from {SRC}")
    import workloads

    return workloads


def child_env() -> dict[str, str]:
    """Environment of CLI launches and set-up probes; a fixed hash seed keeps
    string hashing, and so dict layout, the same from launch to launch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def launch_cli(args: list[str], out: Path) -> tuple[float, int, str]:
    """One CLI launch in a fresh interpreter, its standard output written to `out`.

    Returns the wall time, the exit code and the SHA-256 of the output.
    The output goes to a file, not into this process, so that the
    benchmark's own buffers stay out of peak_rss_mb.
    """
    argv = [sys.executable, "-m", "entact.cli", *args]
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        start = time.perf_counter()
        # A blocking wait with a watchdog: the timeout of subprocess.run
        # polls, and would round the launch time up by as much as 50 ms.
        with subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=stdout,
                              stderr=stderr) as proc:
            watchdog = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
        elapsed = time.perf_counter() - start
    with open(out, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    return elapsed, code, digest


def check_cli_output(wl, returncode: int, stdout: bytes | str, command: str) -> Outcome:
    if returncode != 0:
        return Outcome(1, 1, 0, [f"{command}: exit code {returncode}"])
    try:
        doc = json.loads(stdout)
    except ValueError:
        return Outcome(1, 1, 0, [f"{command}: output is not JSON"])
    return wl.check_cli(doc)


def launch_probe(workload: str, seed: int) -> float:
    """One set-up probe (probe.py); returns the time it reports."""
    argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    argv.append(repr(monotonic()))
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def between_refs(measure: Callable[[], Any], count: int) -> list[tuple[float, float, Any]]:
    """Call `measure` `count` times, each between two reference runs.

    `measure` returns (wall seconds, result); each sample is
    (nominal seconds, wall seconds, result).
    """
    samples = []
    before = ref_s()
    for _ in range(count):
        elapsed, result = measure()
        after = ref_s()
        samples.append((nominal(elapsed, before, after), elapsed, result))
        before = after
    return samples


def run_job(wl, k: int, outcome: Outcome) -> float:
    """Run job k, time only the call, then check its output outside the timing."""
    start = time.perf_counter()
    try:
        out = wl.job(k)
    except Exception:  # a crashing job is a failed operation, not a crash of the run
        outcome.add(Outcome(1, 1, 0, [f"job {k} raised:\n{traceback.format_exc(limit=-4)}"]))
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    outcome.add_job(wl.input_key(k), wl.check(k, out))
    return elapsed


def write_fixtures(wl, workdir: Path) -> dict[str, str]:
    paths = {}
    for name, doc in wl.fixtures().items():
        path = workdir / name
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def warm_up(wl, outcome) -> None:
    """Job 0, checked and untimed; then freeze the survivors so the collector skips them."""
    run_job(wl, 0, outcome)
    gc.collect()
    gc.freeze()


def timed_phase(wl, seconds: float, outcome) -> list[tuple[Any, float, float]]:
    """Jobs timed_from, timed_from + 1, ... until their summed wall time reaches `seconds`.

    The reference work runs between jobs.  Returns (input key, nominal
    seconds, wall seconds) per job.
    """
    times = []
    total = 0.0
    k = wl.timed_from
    before = ref_s()
    while total < seconds:
        elapsed = run_job(wl, k, outcome)
        after = ref_s()
        times.append((wl.input_key(k), nominal(elapsed, before, after), elapsed))
        before = after
        total += elapsed
        k += 1
    return times


def jobs_per_s(times: list[tuple[Any, float, float]]) -> float:
    """Distinct inputs over the sum of each input's median nominal job time."""
    per_input: dict[Any, list[float]] = {}
    for key, seconds, _ in times:
        per_input.setdefault(key, []).append(seconds)
    return len(per_input) / sum(statistics.median(v) for v in per_input.values())


def end_to_end(wl, seed: int, seconds: float, paths, workdir, outcome) -> tuple[dict, dict]:
    # CLI launches and set-up probes run strictly outside the timed phase,
    # half before and half after it, so that their samples span the run.
    # The first launch fills bytecode caches and is not timed.  Its output
    # file is parsed and checked after peak_rss_mb is read, and every
    # timed launch must print the same bytes.
    args = wl.cli_args(paths)
    first = workdir / "cli-first.out"
    _, first_code, first_digest = launch_cli(args, first)
    again = workdir / "cli.out"

    def launch():
        elapsed, code, digest = launch_cli(args, again)
        return elapsed, (code, digest)

    def probe():
        return launch_probe(wl.name, seed), None

    launches = between_refs(launch, wl.cli_launches // 2)
    setup = between_refs(probe, SETUP_PROBES // 2)
    warm_up(wl, outcome)
    times = timed_phase(wl, seconds, outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.unfreeze()
    launches += between_refs(launch, wl.cli_launches - len(launches))
    setup += between_refs(probe, SETUP_PROBES - len(setup))

    checked = check_cli_output(wl, first_code, first.read_bytes(), args[0])
    for _, _, result in launches:
        if result == (first_code, first_digest):
            outcome.add(checked)
        else:
            outcome.add(Outcome(1, 1, 0, [f"{args[0]}: output differs between launches"]))
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setup), "s"),
        "jobs_per_s": (jobs_per_s(times), "1/s"),
        "cli_s": (statistics.median(s[0] for s in launches), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = [t[2] for t in times]
    raw = {"jobs": len(times), "timed_s": sum(wall),
           "wall": {"jobs_per_s": len(wall) / sum(wall),
                    "cli_s": statistics.median(s[1] for s in launches),
                    "setup_s": statistics.median(s[1] for s in setup)},
           "job_s": wall, "cli_s": [s[1] for s in launches], "setup_s": [s[1] for s in setup],
           # the mean of the two reference times around each sample
           "job_ref_s": [t[2] * NOMINAL_REF_S / t[1] for t in times],
           "cli_ref_s": [s[1] * NOMINAL_REF_S / s[0] for s in launches],
           "setup_ref_s": [s[1] * NOMINAL_REF_S / s[0] for s in setup]}
    return metrics, raw


def traced(wl, paths, outcome) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over the same jobs, then trace one CLI call.

    The number of passes is fixed, so every count repeats exactly for a seed.
    """
    import entact.cli

    warm_up(wl, outcome)
    tracer = tracing.Tracer()
    untraced_s, traced_s = [], []
    for p in range(TRACE_PASSES):
        untraced_s.append(sum(run_job(wl, k, outcome) for k in range(wl.traced_jobs)))
        tracer.install()
        try:
            elapsed = 0.0
            for k in range(wl.traced_jobs):
                tracer.job = (p, k)
                job_outcome = Outcome()
                elapsed += run_job(wl, k, job_outcome)
                tracer.counts["protocols.failed"] += job_outcome.known
                outcome.add_job(wl.input_key(k), job_outcome)
            traced_s.append(elapsed)
        finally:
            tracer.uninstall()
    gc.unfreeze()

    tracer.install()
    try:
        tracer.job = "cli"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = entact.cli.main(wl.cli_args(paths))
        text = buf.getvalue()
        tracer.counts["cli.output_bytes"] += len(text.encode())
        cli_outcome = check_cli_output(wl, code, text, "in-process cli")
        tracer.counts["protocols.failed"] += cli_outcome.known
        outcome.add(cli_outcome)

        tracer.job = "setup"
        wl.build_fixtures()
    finally:
        tracer.uninstall()

    metrics = tracer.summary()
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    metrics["trace.overhead_pct"] = overhead * 100.0
    raw = {"traced_jobs": wl.traced_jobs, "untraced_pass_s": untraced_s,
           "traced_pass_s": traced_s, "spans": len(tracer.spans)}
    return metrics, raw


def run(args: argparse.Namespace) -> dict:
    workloads = import_workloads()
    host_start = ref_s() * 1e3
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    wl.prepare()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    try:
        paths = write_fixtures(wl, workdir)
        if args.trace:
            metrics, raw = traced(wl, paths, outcome)
        else:
            metrics, raw = end_to_end(wl, args.seed, args.seconds, paths, workdir, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    host_end = ref_s() * 1e3
    if args.trace:
        metrics["host.ref_ms"] = statistics.mean([host_start, host_end])
        units = {name: unit for name, unit, _ in tracing.per_layer_metric_names()}
        metrics = {name: (value, units[name]) for name, value in metrics.items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "host.ref_ms": {"start": host_start, "end": host_end},
                      "problems": outcome.problems, **raw}))
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def smoke(seconds: float) -> int:
    """Run every workload in both modes; print and check every named metric and unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != tracing.per_layer_metric_names():
        problems.append("BENCHMARK.json per_layer differs from tracing.per_layer_metric_names()")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} or units differ")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            print(f"{label}: correct {result['correct']}, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print("SMOKE FAIL:", problem)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "protocol", "oracle", "search"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed phase (default 15, or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload in both modes; check every metric is emitted")
    args = parser.parse_args()
    if args.smoke:
        return smoke(args.seconds or 1.0)
    if args.seconds is None:
        args.seconds = 15.0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
