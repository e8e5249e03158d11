"""Record the reference AUC and AP of every pool entry into references.json.

Run from the root of a checkout, with the same environment run.py gives its
workers:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/record.py grid

Each named workload's section is replaced; the others are kept. Recording
every pool takes about 20 minutes on one core. Re-record only when a change
is meant to move AUC or AP by more than the tolerance in run.py.
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from fsad import numcore as nc  # noqa: E402
from fsad import runner, training  # noqa: E402

REFERENCES = os.path.join(HERE, "references.json")
SEQ_K4_TAPE_NODES = 308  # forward nodes of one seq step at k=4, all taps


def seq_k4_tape_nodes() -> int:
    """Tape length of one seq training step at k=4 on the grid config."""
    cfg = workloads.WORKLOADS["grid"].config()
    world = workloads.setup(workloads.WORKLOADS["grid"], None)
    ep = runner.sample_episode(world.dataset, 4, 0)
    spec = cfg.backbone_spec()
    feats = runner.take(world.store, spec.selected_visual, ep.support_ids)
    model = runner.model_from_config(cfg)
    with nc.GradTape() as tape:
        scores = training.training_scores(
            model, {layer: nc.Tensor(a) for layer, a in feats.items()})
        training.bce_loss(scores, world.store.labels[ep.support_ids])
    return len(tape)


def record(w, work_dir: str) -> dict:
    checkpoint = None
    if w.name == "eval_wide":
        checkpoint = os.path.join(work_dir, "eval.ckpt")
        workloads.prepare_checkpoint(checkpoint)
    world = workloads.setup(w, checkpoint)
    section: dict[str, dict] = {}
    start = time.perf_counter()
    for entry in range(w.pool):
        for name, _, call in workloads.parts(w, entry, world, work_dir):
            for key, pairs in call().items():
                if not np.all(np.isfinite(pairs)):
                    raise SystemExit(f"{w.name} {name} {key}: non-finite {pairs}")
                section.setdefault(name, {})[str(key)] = pairs
        print(f"{w.name}: {entry + 1}/{w.pool} entries, "
              f"{time.perf_counter() - start:.0f} s", file=sys.stderr)
    return section


def main() -> None:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    nodes = seq_k4_tape_nodes()
    if nodes != SEQ_K4_TAPE_NODES:
        raise SystemExit(f"seq k=4 step records {nodes} tape nodes, "
                         f"expected {SEQ_K4_TAPE_NODES}")
    work_dir = os.path.join(".perfbench_work", f"record-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        sections = {name: record(workloads.WORKLOADS[name], work_dir)
                    for name in names}
    finally:
        shutil.rmtree(work_dir)
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES) as fh:
            refs = json.load(fh)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    refs["seq_k4_tape_nodes"] = nodes
    refs.setdefault("workloads", {}).update(sections)
    refs.setdefault("recorded_at", {}).update({name: commit for name in names})
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
