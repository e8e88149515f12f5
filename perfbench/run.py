"""tmcn benchmark: end-to-end and per-layer metrics for one workload, or all of them.

    python3 perfbench/run.py --workload acceptance --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  Workloads and metrics are the ones named
in ``BENCHMARK.json``; ``workloads.py`` says why each workload exists and
``tracing.py`` which end-to-end metric each per-layer metric should move.

Every measurement happens in a fresh child process (``session.py``), run
one after another, so peak RSS and set-up time are per process.  Each
session draws its own rows from the seed and its index, and warms up
with an untimed, checked train and evaluate call before its timed calls.
An untraced run (``--trace 0``) starts SESSIONS sessions that share the
``--seconds`` budget: each gets an equal share of what the sessions
before it left.  It reports each end-to-end metric as the median of its
samples: one per session for set-up time and peak RSS, one per
successful timed call for the others.  A traced run (``--trace 1``)
starts one untraced session and then one traced session, on the same
rows, and reports the per-layer metrics of the traced one.
``trace.overhead_frac`` compares the first timed train call of the two,
one sample each, so it carries the host's run-to-run noise.  Traced
sessions never feed the end-to-end metrics.

Every call's outputs are checked (finite losses and embedding, embedding
shape, acc and nmi floors).  Within a session every train call must give
a bit-identical final loss, and an evaluate call rerun at one k-means
seed bit-identical assignments.  A call that fails a check counts as
failed and gives no timing.  The last line of standard output is the
result object; the lines before it show the environment and each metric
with its sample count.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SESSIONS = 3
SESSION_TIMEOUT_S = 170
sys.path.insert(0, str(HERE))

from session import pin_problem  # noqa: E402  (imports nothing heavy)


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (SRC / "tmcn" / "__init__.py").is_file():
        raise BenchError(f"no tmcn sources under {SRC}; run from a checkout of the repository")
    return json.loads(path.read_text())


def run_session(workload: str, seed: int, budget: float, trace: int, session: int,
                deadline: float) -> dict:
    """One child process; returns its report, or raises BenchError with its stderr."""
    work = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}-{trace}-{session}"
    work.mkdir(parents=True, exist_ok=True)
    timeout = max(1.0, min(SESSION_TIMEOUT_S, deadline - time.monotonic()))
    argv = [sys.executable, str(HERE / "session.py"), "--workload", workload,
            "--seed", str(seed), "--budget", str(budget), "--trace", str(trace),
            "--session", str(session), "--work", str(work), "--src", str(SRC)]
    try:
        # session i always hashes strings with seed i: with random hash seeds the
        # peak RSS of one cluster_large process ranged 183-206 MiB
        env = dict(os.environ, PYTHONHASHSEED=str(session))
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=ROOT,
                              env=env)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} session exceeded {timeout:.0f} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} session exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(reports: list[dict]) -> tuple[dict, int, int, list[str]]:
    """Samples per end-to-end metric, attempted and failed calls, and failure notes."""
    samples = {k: [] for k in ("setup_s", "train_s", "eval_s", "peak_rss_mib", "acc", "nmi")}
    attempted = failed = 0
    notes = []
    for report in reports:
        samples["setup_s"].append(report["setup_s"])
        samples["peak_rss_mib"].append(report["peak_rss_mib"])
        # a session's own data: k-means seed, or "train" -> digest of the first call
        reference = {}
        for rep in report["reps"]:
            attempted += rep["attempted"]
            if rep["error"]:
                failed += 1
                notes.append(rep["error"])
                continue
            mismatched = sum(reference.setdefault(key, d) != d for key, d in rep["digests"])
            if mismatched:
                # a rerun at the same seed changed the final loss or the assignments
                failed += mismatched
                notes.append(f"{mismatched} call(s) not bit-identical to the first")
                continue
            if not rep.get("timed", True):
                continue
            if rep["train_s"] is not None:
                samples["train_s"].append(rep["train_s"])
            for key in ("eval_s", "acc", "nmi"):
                samples[key].extend(rep[key])
    return samples, attempted, failed, notes


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + SESSION_TIMEOUT_S
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        # the untraced session gives the base for trace.overhead_frac
        reports = [run_session(workload, seed, 0.0, t, 0, deadline) for t in (0, 1)]
    else:
        reports = []
        left = seconds
        for i in range(SESSIONS):
            reports.append(run_session(workload, seed, left / (SESSIONS - i), 0, i, deadline))
            left -= reports[-1]["reps_s"]
    samples, attempted, failed, notes = summarize(reports)
    env = reports[0]["env"]
    if trace:
        base, traced = summarize(reports[:1])[0], summarize(reports[1:])[0]
        layers = dict(reports[1]["layers"])
        if base["train_s"] and traced["train_s"]:
            layers["trace.overhead_frac"] = traced["train_s"][0] / base["train_s"][0] - 1.0
        names = [m["name"] for m in spec["per_layer"]]
        values = {name: layers.get(name) for name in names}
        counts = {name: 1 for name in names}
    else:
        values = {"ok_frac": (attempted - failed) / attempted if attempted else None}
        counts = {"ok_frac": attempted}
        for name, xs in samples.items():
            values[name] = statistics.median(xs) if xs else None
            counts[name] = len(xs)
        names = [m["name"] for m in spec["end_to_end"]]
    missing = [n for n in names if values.get(n) is None]
    if missing:
        notes.append(f"no value for {', '.join(missing)}")
    correct = failed == 0 and not missing
    return {
        "env": env, "notes": notes, "counts": counts,
        "result": {
            "correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": {n: {"value": values[n], "unit": units[n]}
                        for n in names if values.get(n) is not None},
        },
    }


def print_report(workload: str, out: dict) -> None:
    print("environment " + json.dumps(out["env"], sort_keys=True))
    for name, m in out["result"]["metrics"].items():
        print(f"{workload:17s} {name:36s} {m['value']:>16.6g} {m['unit']:9s} "
              f"n={out['counts'][name]}")
    for note in out["notes"]:
        print(f"{workload:17s} FAILED: {note}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=7, help="data seed (default 7)")
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds of timed calls per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        problem = pin_problem()
        if problem:
            raise BenchError(problem)
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if any(w not in names for w in chosen):
            raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        outs = {w: measure(spec, w, args.seed, seconds, args.trace) for w in chosen}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for w, out in outs.items():
        print_report(w, out)
    if len(outs) == 1:
        result = outs[chosen[0]]["result"]
    else:
        result = {
            "correct": all(o["result"]["correct"] for o in outs.values()),
            "attempted": sum(o["result"]["attempted"] for o in outs.values()),
            "failed": sum(o["result"]["failed"] for o in outs.values()),
            "metrics": {f"{w}.{n}": m for w, o in outs.items()
                        for n, m in o["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
