"""One benchmark session: a fresh process that sets up one workload and times it.

Run by ``run.py``, never by hand.  It prints one JSON line: set-up time
(CPU time from process start, before ``import tmcn``, until the inputs
are ready), the process's peak RSS, the environment, the wall time its
reps took, and one record per rep, a train call and its evaluate calls.
The first record is the warm-up (``workloads.warm_up``), which is
checked but gives no timings.  Reps repeat while the next one fits the
``--budget``; there is always at least one.  The last record evaluates
the first rep's first k-means seed again, untimed, for the determinism
check.  With ``--trace 1`` set-up and the timed reps, not the warm-up
or the recheck, run under the layer wrappers and the per-layer metrics
are added.
"""

import os
import sys

PIN_VARS = ("TMCN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_problem():
    """Why the single-thread BLAS pin would not hold in this process, or None."""
    if "numpy" in sys.modules:
        return "numpy was imported before tmcn, so tmcn's BLAS thread pin is not applied"
    for var in PIN_VARS:
        if os.environ.get(var, "1") != "1":
            return f"{var}={os.environ[var]}; the benchmark runs only single-threaded (1)"
    return None


def main(argv):
    import argparse
    import contextlib

    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True, help="seconds of timed calls")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--session", type=int, default=0, help="index within the run")
    p.add_argument("--work", required=True)
    p.add_argument("--src", required=True)
    args = p.parse_args(argv)

    problem = pin_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, args.src)
    import json
    import platform
    import resource
    import time
    from pathlib import Path

    import tmcn  # noqa: F401  (first: applies the BLAS pin before numpy loads)
    import numpy
    import scipy

    import tracing
    import workloads

    w = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()

    def layers_traced():
        return tracing.traced(tracer) if args.trace else contextlib.nullcontext()

    checked = (workloads.CheckFailed, ArithmeticError, ValueError)
    with layers_traced():
        run = workloads.start(w, args.seed, args.session, Path(args.work), tracer)
    setup_s = workloads.CLOCK()     # CPU time since the process started

    def untimed(attempted, call):
        """A checked, untimed and untraced call; its record gives no timings."""
        rep = {"timed": False, "digests": [], "attempted": attempted, "error": None}
        run.tracer = tracing.NullTracer()
        try:
            call(rep)
        except checked as e:
            rep["error"] = f"{type(e).__name__}: {e}"
        run.tracer = tracer
        return rep

    warm = untimed(2, lambda rep: run.warm_up())
    reps = [warm]

    spent = 0.0
    with layers_traced():
        while not warm["error"]:
            rep = {"train_s": None, "eval_s": [], "acc": [], "nmi": [], "digests": [],
                   "attempted": 1, "error": None}
            t0 = time.perf_counter()
            try:
                rep["train_s"] = run.train()
                rep["digests"].append(["train", workloads.digest(run.total_loss, numpy.empty(0))])
                for kmeans_seed in workloads.eval_seeds(len(reps) - 1, w.evals_per_train):
                    rep["attempted"] += 1
                    eval_s, acc, nmi, digest = run.evaluate(kmeans_seed)
                    for key, value in zip(("eval_s", "acc", "nmi", "digests"),
                                          (eval_s, acc, nmi, [kmeans_seed, digest])):
                        rep[key].append(value)
            except checked as e:
                # the call that raised is the one failed operation of this rep
                rep["error"] = f"{type(e).__name__}: {e}"
            reps.append(rep)
            last = time.perf_counter() - t0
            spent += last
            if rep["error"] or spent + last > args.budget:
                break

    if not reps[-1]["error"]:
        # evaluate the first timed call's k-means seed again on the last model,
        # so that a rerun at this seed is compared bit for bit
        first = reps[1]["digests"][1][0]
        reps.append(untimed(1, lambda rep: rep["digests"].append(
            [first, run.evaluate(first)[3]])))

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reps_s": spent,
        "reps": reps,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "TMCN_THREADS": os.environ.get("TMCN_THREADS", "1 (default)"),
            "seed": args.seed,
        },
    }
    if args.trace:
        out["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
