"""Command line experiment harness.

Subcommands cover the whole workflow: corpus synthesis, episode training,
checkpoint evaluation, component/stage ablation grids, sensitivity sweeps
and gradient verification. Every run echoes its effective configuration
into the output directory, and every report is a CSV whose first line
records the tool version and the configuration hash, so a result can be
regenerated from its own artifacts.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .backbone import FeatureBundle, save_feature_bundle
from .config import RunConfig, load_config
from .errors import FsadError
from .model import apply_checkpoint, save_checkpoint, state_checksum
from .runner import (ablate, beta_sweep, build_feature_store, gradcheck_all,
                     lambda_sweep, model_from_config, run_episode)
from .synthdata import generate_dataset, manifest_text


def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _comment(cfg: RunConfig) -> str:
    return f"# tool=fsad {__version__} config={cfg.hash()}"


def write_csv(path: Path, header: list[str], rows: list[dict],
              cfg: RunConfig) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_comment(cfg) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt_cell(row[k]) for k in header])


def _prepare_out(cfg: RunConfig) -> Path:
    out = Path(cfg["run.out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective.cfg").write_text(cfg.text())
    return out


def _fmt_human(v) -> str:
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, (float, np.floating)):
        return _fmt_cell(v)
    return f"{float(v):.4f}"


def _print_table(title: str, header: list[str], rows: list[dict]) -> None:
    cells = [list(header)] + [[_fmt_human(r[k]) for k in header] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    print(title)
    for row in cells:
        print("  " + "  ".join(s.ljust(w) for s, w in zip(row, widths)))


def _world(cfg: RunConfig):
    dataset = generate_dataset(cfg.dataset_spec())
    store = build_feature_store(cfg.backbone_spec(), dataset)
    return dataset, store


def cmd_synth(cfg: RunConfig, args) -> int:
    spec = cfg.dataset_spec()
    dataset = generate_dataset(spec)
    out = _prepare_out(cfg)
    lines = [_comment(cfg), manifest_text(spec).rstrip("\n"),
             f"# samples={len(dataset)}",
             "index,label,center_y,center_x,radius"]
    for i, s in enumerate(dataset):
        (cy, cx), rad = s.disk or (("", ""), "")  # a float prints as its repr
        lines.append(f"{i},{s.label},{cy},{cx},{rad}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")
    note = ""
    if args.emit_features:
        store = build_feature_store(cfg.backbone_spec(), dataset)
        fdir = out / "features"
        fdir.mkdir(exist_ok=True)
        for i in range(len(dataset)):
            bundle = FeatureBundle(d=cfg.backbone_spec().d,
                                   visual=store.take(store.feats, i))
            save_feature_bundle(bundle, str(fdir / f"sample_{i:04d}.haafb"))
        note = f" and {len(dataset)} feature bundles"
    print(f"synth: {len(dataset)} samples{note} -> {out}")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg)
    dataset, store = _world(cfg)
    run = run_episode(cfg, store, dataset, 0)
    save_checkpoint(run.model, str(out / "model.ckpt"))
    write_csv(out / "trace.csv", ["epoch", "lr_fast", "lr_slow", "loss"],
              [vars(t) for t in run.trace], cfg)
    last = f"{run.trace[-1].loss:.6f}" if run.trace else "n/a"
    print(f"train: {len(run.trace)} epochs, final loss {last}, "
          f"query auc {run.metrics.auc:.4f}, "
          f"checkpoint {state_checksum(run.model)[:16]} -> {out}")
    return 0


SCORE_COLS = ["episode", "id", "label", "s_sem", "s_proto", "s_final"]
METRIC_COLS = ["episode", "seed", "k", "strategy", "lam", "auc", "ap", "f1",
               "acc", "threshold", "tp", "fp", "tn", "fn"]


def cmd_eval(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg)
    model = model_from_config(cfg)
    apply_checkpoint(model, args.checkpoint)  # before the corpus: a bad one fails fast
    dataset, store = _world(cfg)
    srows, mrows = [], []
    for i in range(cfg["episode.count"]):
        run = run_episode(cfg, store, dataset, i, train=False, model=model)
        rep = run.report
        srows += [{"episode": i, "id": qid, "label": int(rep.labels[j]),
                   "s_sem": float(rep.sem_norm[j]),
                   "s_proto": float(rep.proto_norm[j]),
                   "s_final": float(rep.final[j])}
                  for j, qid in enumerate(run.episode.query_ids)]
        m = run.metrics
        mrows.append({"episode": i, "seed": run.episode_seed,
                      "k": run.episode.k, "strategy": run.model.strategy,
                      "lam": run.report.lam, "auc": m.auc, "ap": m.ap,
                      "f1": m.f1, "acc": m.acc, "threshold": m.threshold,
                      "tp": m.tp, "fp": m.fp, "tn": m.tn, "fn": m.fn})
    write_csv(out / "scores.csv", SCORE_COLS, srows, cfg)
    write_csv(out / "metrics.csv", METRIC_COLS, mrows, cfg)
    mean_auc = float(np.mean([r["auc"] for r in mrows]))
    mean_ap = float(np.mean([r["ap"] for r in mrows]))
    print(f"eval: {len(mrows)} episodes, mean auc {mean_auc:.4f}, "
          f"mean ap {mean_ap:.4f} -> {out}")
    return 0


ABLATE_TABLES = (("strategies", ["row", "adapters", "strategy", "dual", "auc", "ap"],
                  "component/strategy grid"),
                 ("stages", ["stage", "visual_taps", "text_taps", "auc", "ap"], "stage grid"))


def cmd_ablate(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg)
    dataset, store = _world(cfg)
    for (name, cols, title), grid in zip(ABLATE_TABLES, ablate(cfg, store, dataset)):
        write_csv(out / f"ablate_{name}.csv", cols, grid.rows, cfg)
        _print_table(f"{title} (mean over {cfg['episode.count']} episodes)",
                     cols, grid.rows)
    return 0


SWEEP_COLS = ["parameter", "value", "seed", "auc", "ap"]


def cmd_sweep(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg)
    dataset, store = _world(cfg)
    for name, sweep, title in (("lambda", lambda_sweep, "ensemble weight sweep"),
                               ("beta", beta_sweep, "gate value sweep")):
        if args.which in (name, "all"):
            rows = sweep(cfg, store, dataset)
            write_csv(out / f"sweep_{name}.csv", SWEEP_COLS, rows, cfg)
            _print_table(f"{title} (mean rows)", SWEEP_COLS,
                         [r for r in rows if r["seed"] == "mean"])
    return 0


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg)
    rows = gradcheck_all(cfg, corrupt=args.corrupt)
    write_csv(out / "gradcheck.csv", ["name", "group", "rel_err", "ok"],
              [vars(r) for r in rows], cfg)
    for group in ("op", "fast", "slow"):
        grows = [r for r in rows if r.group == group]
        if grows:
            print(f"gradcheck[{group}]: {len(grows)} checks, "
                  f"max rel err {max(r.rel_err for r in grows):.3g}")
    failed = [r for r in rows if not r.ok]
    for r in failed:
        print(f"  FAIL {r.name} ({r.group}) rel_err={r.rel_err:.3g}")
    print(f"gradcheck: {'FAIL' if failed else 'PASS'} "
          f"({len(rows) - len(failed)}/{len(rows)} ok) -> {out}")
    return 0


COMMANDS = {"synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
            "ablate": cmd_ablate, "sweep": cmd_sweep,
            "gradcheck": cmd_gradcheck}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key=value configuration file")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override episode.seed")
    common.add_argument("--out", metavar="DIR", help="override run.out")
    common.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override any configuration key (repeatable)")
    p = argparse.ArgumentParser(
        prog="fsad",
        description="few-shot anomaly detection experiment harness")
    p.add_argument("--version", action="version",
                   version=f"fsad {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    sp = sub.add_parser("synth", parents=[common],
                        help="render the synthetic corpus and its manifest")
    sp.add_argument("--emit-features", action="store_true",
                    help="also write one .haafb feature bundle per image")
    tp = sub.add_parser("train", parents=[common],
                        help="train the adaptation stack on one episode")
    tp.add_argument("--epochs", type=int, help="override train.epochs")
    tp.add_argument("--strategy", help="override clsa.strategy")
    ep = sub.add_parser("eval", parents=[common],
                        help="score query episodes with a trained checkpoint")
    ep.add_argument("--checkpoint", required=True, metavar="PATH")
    ep.add_argument("--lam", type=float, help="override infer.lam")
    ep.add_argument("--episodes", type=int, help="override episode.count")
    sub.add_parser("ablate", parents=[common],
                   help="component/strategy and stage ablation grids")
    wp = sub.add_parser("sweep", parents=[common],
                        help="ensemble weight and gate value sweeps")
    wp.add_argument("--which", choices=("lambda", "beta", "all"),
                    default="all")
    gp = sub.add_parser("gradcheck", parents=[common],
                        help="finite-difference gradient verification")
    gp.add_argument("--corrupt", action="store_true",
                    help="test mode: inject a backward fault "
                         "(negative control; the report must fail)")
    return p


_MIRRORS = (("seed", "episode.seed"), ("out", "run.out"),
            ("epochs", "train.epochs"), ("strategy", "clsa.strategy"),
            ("lam", "infer.lam"), ("episodes", "episode.count"))


def _overrides(args) -> list[str]:
    pairs = list(args.set)
    for flag, key in _MIRRORS:
        val = getattr(args, flag, None)
        if val is not None:
            pairs.append(f"{key}={val}")
    return pairs


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config, _overrides(args))
        return COMMANDS[args.command](cfg, args)
    except FsadError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
