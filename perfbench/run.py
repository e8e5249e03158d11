"""fsad benchmark: one workload, one seed, one JSON result on the last line.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports fsad from ./src. With
--trace 0 it reports the end-to-end metrics of an untraced closed loop; with
--trace 1 it reports the per-layer metrics of a traced run. See README.md.

This process imports neither fsad nor numpy. It starts workers (worker.py),
reads their JSON lines, kills a worker that falls silent (the watchdog),
checks every AUC and AP against references.json and computes the metrics.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import queue  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("grid", "train_single", "eval_wide")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 5      # fresh processes timed for setup_s; the median is reported
SILENCE_LIMIT_S = 60  # a worker printing nothing for this long is hung
RUN_LIMIT_S = 170     # every worker of one run must end within this
# Largest accepted |AUC - reference| and |AP - reference|. Batched BLAS may
# round differently, which can reorder near-tied scores; one swapped pair
# moves AUC by 1/(50*50) = 4e-4 on a 100-query episode, so this admits a few.
TOLERANCE = 2e-3
TAIL_LADDER = (99, 95, 90, 75, 50)
MIN_BEYOND = 10       # samples a reported tail percentile must have above it


class Failure(Exception):
    """The program could not be set up; no result can be given."""


def watch(args: list[str], env: dict, deadline: float) -> tuple[list[dict], str | None]:
    """Run one worker and collect its records.

    Returns the records and why the worker failed, or None. A worker that is
    silent for SILENCE_LIMIT_S or outlives the deadline is killed.
    """
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                            text=True, env=env)
    lines: queue.Queue = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    records, failure = [], None
    try:
        while True:
            wait = min(SILENCE_LIMIT_S, deadline - time.monotonic())
            try:
                line = lines.get(timeout=max(wait, 0.0))
            except queue.Empty:
                failure = f"killed after {wait:.0f} s without output"
                break
            if line is None:
                break
            if line.startswith("{"):
                records.append(json.loads(line))
            else:
                sys.stderr.write(line)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
        proc.stdout.close()
    if failure is None and proc.returncode != 0:
        failure = f"exit status {proc.returncode}"
    return records, failure


def load_references(workload: str) -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)["workloads"][workload]


def bad_pairs(record: dict, refs: dict) -> tuple[int, list[str]]:
    """Count the (auc, ap) outputs of one call that miss their reference."""
    good, notes = 0, []
    name = record["result"]
    for key, pairs in record["outputs"].items():
        want = refs.get(name, {}).get(key)
        if want is None or len(want) != len(pairs):
            notes.append(f"{name} {key}: no reference for {len(pairs)} outputs")
            continue
        for got, ref in zip(pairs, want):
            if all(math.isfinite(g) and abs(g - r) <= TOLERANCE
                   for g, r in zip(got, ref)):
                good += 1
            else:
                notes.append(f"{name} {key}: got {got}, reference {ref}")
    return record["units"] - good, notes


def tally(records: list[dict], failure: str | None, refs: dict):
    """(attempted, failed, notes) over every call a worker started."""
    attempted = failed = 0
    notes: list[str] = []
    pending = None
    for r in records:
        if "start" in r:
            pending = r
        elif "result" in r or "error" in r:
            pending = None
            attempted += r["units"]
            if "error" in r:
                failed += r["units"]
                notes.append(f"{r['error']} raised:\n{r['message']}")
            else:
                bad, why = bad_pairs(r, refs)
                failed += bad
                notes += why
    if pending is not None:  # the call in flight when the worker died
        attempted += pending["units"]
        failed += pending["units"]
        notes.append(f"{pending['start']}: {failure}")
    elif failure is not None:
        notes.append(f"worker: {failure}")
    return attempted, failed, notes


def percentile(sorted_xs: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    k = (len(sorted_xs) - 1) * pct / 100
    lo, hi = math.floor(k), math.ceil(k)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (k - lo)


def tail(sorted_xs: list[float], wanted: int) -> tuple[int, float, int]:
    """The workload's tail percentile, or the next lower one on the ladder
    that has MIN_BEYOND samples above it; p50 when none has."""
    for pct in TAIL_LADDER:
        value = percentile(sorted_xs, pct)
        beyond = sum(x > value for x in sorted_xs)
        if pct <= wanted and (beyond >= MIN_BEYOND or pct == 50):
            return pct, value, beyond
    raise AssertionError("TAIL_LADDER ends at 50")


def git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def end_to_end(args, env, deadline, common) -> tuple[dict, list, str | None]:
    setups = []
    for _ in range(SETUP_PROBES):
        records, failure = watch(["setup", *common], env, deadline)
        if failure or not records:
            raise Failure(f"set-up failed: {failure}")
        setups.append(records[-1]["setup_s"])
    records, failure = watch(["run", *common, "--seconds", str(args.seconds)],
                             env, deadline)
    ops = [(r["op_s"], r["units"]) for r in records if "op_s" in r]
    facts = next((r["facts"] for r in records if "facts" in r), None)
    if not ops or facts is None:
        raise Failure(f"no operation completed: {failure}")
    # a worker killed by the watchdog reports neither its loop time nor its
    # memory; the completed operations and the parent's child usage stand in
    done = next((r for r in records if "done" in r),
                {"done": sum(s for s, _ in ops),
                 "rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss})
    units = sum(u for _, u in ops)
    per_unit = sorted(s / u for s, u in ops)
    pct, tail_s, beyond = tail(per_unit, facts["tail_pct"])
    rate = units / done["done"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "episodes_per_s": (rate, "1/s"),
        "episode_s.p50": (percentile(per_unit, 50), "s"),
        "episode_s.tail": (tail_s, "s"),
        "queries_per_s": (rate * facts["queries_per_unit"], "1/s"),
        "peak_rss_mb": (done["rss_kb"] / 1024, "MB"),
    }
    print(f"episode_s.tail is p{pct}: {beyond} of {len(per_unit)} samples beyond it")
    print(f"setup_s samples: {[round(s, 4) for s in setups]}")
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            records, failure)


def traced(args, env, deadline, common) -> tuple[dict, list, str | None]:
    records, failure = watch(["trace", *common], env, deadline)
    trace = next((r for r in records if "trace" in r), None)
    if trace is None:
        raise Failure(f"traced run did not finish: {failure}")
    print(f"trace overhead: untraced passes {trace['untraced_s']} s, traced passes "
          f"{trace['traced_s']} s; backward calls by tape length {trace['tape_lengths']}")
    for problem in trace["problems"]:
        print(f"coverage: {problem}")
    if trace["problems"]:
        failure = failure or "coverage or exact-count check failed"
    return trace["trace"], records, failure


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fsad", "__init__.py")):
        print("perfbench: no fsad sources in ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = {**os.environ, **{var: "1" for var in THREAD_VARS},
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                                         if p),
           "PYTHONDONTWRITEBYTECODE": "1"}
    work_dir = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", work_dir]
    try:
        if args.workload == "eval_wide":
            checkpoint = os.path.join(work_dir, "eval.ckpt")
            _, failure = watch(["prepare", "--checkpoint", checkpoint], env, deadline)
            if failure:
                raise Failure(f"training the eval checkpoint failed: {failure}")
            common += ["--checkpoint", checkpoint]
        measure = traced if args.trace else end_to_end
        metrics, records, failure = measure(args, env, deadline, common)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    attempted, failed, notes = tally(records, failure, load_references(args.workload))
    for note in notes[:20]:
        print(f"check: {note}")
    facts = next((r["facts"] for r in records if "facts" in r), {})
    cpus = len(os.sched_getaffinity(0))
    print("facts:", json.dumps({
        "workload": args.workload, "seed": args.seed, "nproc": cpus,
        "cpu_count": os.cpu_count(), "git_commit": git_commit(root),
        "error_rate": failed / attempted if attempted else None,
        "tolerance": TOLERANCE, **facts}))
    print(json.dumps({"correct": failed == 0 and failure is None and attempted > 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
