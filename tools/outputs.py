"""Run a fixed small CLI matrix and keep every output under one directory.

    python tools/outputs.py DIR

Each step runs ``fsad.cli.main`` with ``--out DIR/<step>``, at
``episode.count=3``, 5 epochs and the benchmark learning rates; a step's
own settings come last and win. ``ablate_rem`` runs ``episode.count=6``,
so every structure trains as a stack of five plus a stack of one and the
single-episode training path is covered too. ``ablate_ragged`` does the
same at ``train.batch_size=3``: 8 support rows make mini-batches of 3, 3
and 2, so ragged positions are covered in a stack of five and in a stack
of one. The ``*_wide`` steps score 392 queries per episode, so scoring
crosses its block boundaries; ``eval_wide_proto`` scores them at
``infer.lam=0``, so its AUC, AP and threshold come from the prototype
branch alone. ``eval_k1`` scores the k=4 checkpoint at ``episode.k=1``,
so each prototype row is one image's patch mean and the threshold is
fitted on two support scores. The ``*_recipe`` steps also set every
``episode.*``, ``adapt.*``, ``clsa.*`` and ``infer.*`` key but
``episode.count`` and ``episode.k`` off its default, so a setting the
library drops on its way changes an output; in ``ablate_recipe`` the
all-stages row reads the trainings of the configured ``t2v`` row, not
of ``seq``, so a key that ignored the configured strategy would show.
``train_p0`` trains at ``adapt.prompt_len=0`` and ``eval_p0`` scores its
checkpoint, so each prompt is the class row alone and the empty context
path is covered. ``train_odd`` trains on 20x24 images, so the renderer
and the patch projection meet an image size other than the 32x32 that
every other step renders.
The package is imported from this checkout's ``src``. Run the script from
two checkouts with the same relative DIR and compare them with ``diff
-r``: an empty diff means the change kept every output byte-equal,
including each ``effective.cfg`` (which records ``run.out``). Exits
non-zero if any step does.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fsad.cli import main  # noqa: E402

COMMON = ["--set", "episode.count=3", "--set", "train.epochs=5",
          "--set", "train.lr_fast=0.03", "--set", "train.lr_slow=0.003"]

RECIPE = [arg for item in (
    "episode.query_per_class=20", "episode.seed=5",
    "adapt.prompt_len=4", "adapt.reduction=2", "adapt.alpha_init=0.2",
    "clsa.strategy=t2v", "clsa.heads=2", "clsa.gate_init=0.25",
    "clsa.gates_learnable=false", "infer.lam=0.3", "infer.eps=1e-6",
) for arg in ("--set", item)]

WIDE = ["--set", "episode.query_per_class=196"]

P0 = ["--set", "adapt.prompt_len=0"]


def steps(root: str) -> list[tuple[str, list[str]]]:
    return [
        ("synth", ["synth", "--emit-features"]),
        ("train_k4", ["train"]),
        ("train_k16", ["train", "--set", "episode.k=16"]),
        ("eval_k4", ["eval", "--checkpoint", f"{root}/train_k4/model.ckpt"]),
        ("eval_k1", ["eval", "--checkpoint", f"{root}/train_k4/model.ckpt",
                     "--set", "episode.k=1"]),
        ("eval_wide", ["eval", "--checkpoint", f"{root}/train_k4/model.ckpt"]
         + WIDE),
        ("eval_wide_proto", ["eval", "--checkpoint",
                             f"{root}/train_k4/model.ckpt"] + WIDE
         + ["--set", "infer.lam=0"]),
        ("ablate", ["ablate"]),
        ("sweep", ["sweep", "--which", "all"]),
        ("ablate_k16", ["ablate", "--set", "episode.k=16"]),
        ("ablate_rem", ["ablate", "--set", "episode.count=6"]),
        ("ablate_ragged", ["ablate", "--set", "episode.count=6",
                           "--set", "train.batch_size=3"]),
        ("sweep_k16", ["sweep", "--which", "all", "--set", "episode.k=16"]),
        ("gradcheck", ["gradcheck"]),
        ("gradcheck_corrupt", ["gradcheck", "--corrupt"]),
        ("train_recipe", ["train"] + RECIPE),
        ("eval_recipe", ["eval", "--checkpoint",
                         f"{root}/train_recipe/model.ckpt"] + RECIPE),
        ("eval_recipe_wide", ["eval", "--checkpoint",
                              f"{root}/train_recipe/model.ckpt"] + RECIPE + WIDE),
        ("ablate_recipe", ["ablate"] + RECIPE),
        ("sweep_recipe", ["sweep", "--which", "all"] + RECIPE),
        ("train_p0", ["train"] + P0),
        ("eval_p0", ["eval", "--checkpoint", f"{root}/train_p0/model.ckpt"] + P0),
        ("train_odd", ["train", "--set", "data.height=20", "--set", "data.width=24"]),
    ]


def run(root: str) -> int:
    failed = []
    for name, argv in steps(root):
        print(f"== {name}", flush=True)
        if main(argv[:1] + COMMON + argv[1:] + ["--out", f"{root}/{name}"]) != 0:
            failed.append(name)
    if failed:
        print(f"failed steps: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} DIR")
    sys.exit(run(sys.argv[1]))
