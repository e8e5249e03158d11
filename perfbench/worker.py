"""Child process of the benchmark; run.py starts it and reads what it prints.

Modes:
  prepare  train and save the eval_wide checkpoint (untimed)
  setup    import fsad and set the workload up once, print the seconds taken
  run      set up, then run operations in a closed loop for --seconds
  trace    run a fixed list of operations untraced, then twice traced

Every line on stdout is one JSON object, flushed at once, so run.py can tell
which call is in flight and kill the process when one hangs.
"""

import time

T0 = time.perf_counter()  # before fsad and numpy are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def emit(**record) -> None:
    print(json.dumps(record), flush=True)


def run_op(workloads, w, entry, world, work_dir, count=None) -> int:
    """Run the calls of one operation, reporting each; returns its units."""
    total = 0
    for name, units, call in workloads.parts(w, entry, world, work_dir, count):
        emit(start=name, units=units)
        try:
            outputs = call()
        except Exception:  # recorded as failed units; the loop goes on
            emit(error=name, units=units, message=traceback.format_exc(limit=4))
        else:
            emit(result=name, units=units, outputs=outputs)
        total += units
    return total


def facts(w) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "config_hash": w.config().hash(),
            "tail_pct": w.tail_pct, "queries_per_unit": w.queries_per_unit()}


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def measured_loop(workloads, w, args) -> None:
    world = workloads.setup(w, args.checkpoint)
    workloads.warm_up(w, world)
    order = w.order(args.seed)
    emit(facts=facts(w))
    start = time.perf_counter()
    ops = 0
    while True:
        op_start = time.perf_counter()
        units = run_op(workloads, w, order[ops % len(order)], world, args.work_dir)
        now = time.perf_counter()
        ops += 1
        emit(op_s=now - op_start, units=units)
        if now - start >= args.seconds:
            break
    emit(done=time.perf_counter() - start, rss_kb=peak_rss_kb())


def traced_passes(workloads, w, args) -> None:
    from tracer import EXACT_COUNTS, Tracer, metric_names
    world = workloads.setup(w, args.checkpoint)
    workloads.warm_up(w, world)
    entries = w.order(args.seed)[:w.trace_ops]
    count = 1 if w.name == "grid" else None  # one episode per grid cycle

    def ops_seconds(world) -> float:
        start = time.perf_counter()
        for entry in entries:
            run_op(workloads, w, entry, world, args.work_dir, count)
        return time.perf_counter() - start

    # untraced and traced passes alternate so that drift hits both alike
    tracer = Tracer()
    untraced, passes = [], []
    for _ in range(2):
        untraced.append(ops_seconds(world))
        tracer.install()
        try:
            tracer.reset()
            traced_world = workloads.setup(w, args.checkpoint)
            seconds = ops_seconds(traced_world)
        finally:
            tracer.uninstall()
        passes.append((tracer.metrics(), seconds, dict(tracer.tape_lengths)))
    (first, first_s, tapes), (second, second_s, _) = passes
    problems = tracer.coverage_problems(w.name)
    problems += [f"{key} differs between traced passes: {first[key]} vs {second[key]}"
                 for key in first if not key.endswith(".self_s")
                 and first[key] != second[key]]
    problems += [f"{key} missing" for key in EXACT_COUNTS if key not in first]
    metrics = {key: (first[key] + second[key]) / 2 if key.endswith(".self_s")
               else first[key] for key in first}
    metrics["trace.overhead_pct"] = 100.0 * ((first_s + second_s) / sum(untraced) - 1)
    units = metric_names()
    emit(trace={key: {"value": value, "unit": units[key][0]}
                for key, value in metrics.items()},
         problems=problems, tape_lengths=tapes, untraced_s=untraced,
         traced_s=[first_s, second_s])
    emit(facts=facts(w))
    emit(done=time.perf_counter() - T0, rss_kb=peak_rss_kb())


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prepare", "setup", "run", "trace"))
    parser.add_argument("--workload", default="eval_wide")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work-dir", default=".")
    parser.add_argument("--checkpoint")
    args = parser.parse_args()

    import workloads  # imports fsad, so set-up time includes it
    w = workloads.WORKLOADS[args.workload]
    if args.mode == "prepare":
        workloads.prepare_checkpoint(args.checkpoint)
        emit(prepared=args.checkpoint)
    elif args.mode == "setup":
        workloads.setup(w, args.checkpoint)
        emit(setup_s=time.perf_counter() - T0)
    elif args.mode == "run":
        measured_loop(workloads, w, args)
    else:
        traced_passes(workloads, w, args)


if __name__ == "__main__":
    main()
