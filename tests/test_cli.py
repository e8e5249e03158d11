"""End-to-end command line checks on a small corpus."""

import csv
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fsad.backbone import load_feature_bundle
from fsad import cli
from fsad.cli import main
from fsad.config import RunConfig, load_config
from fsad.model import (checkpoint_meta, load_checkpoint, named_parameters,
                        save_checkpoint, write_checkpoint)
from fsad.runner import (RunSpec, build_feature_store, model_from_config,
                         run_episode)
from fsad.synthdata import generate_dataset

SMALL = {
    "backbone.d": 16, "backbone.vision_layers": 4, "backbone.text_layers": 2,
    "backbone.visual_taps": (2, 4), "backbone.text_taps": (1, 2),
    "backbone.patch_grid": (2, 2),
    "data.n_normal": 12, "data.n_abnormal": 12, "data.height": 16,
    "data.width": 16, "data.blob_radius_min": 2.0, "data.blob_radius_max": 4.0,
    "episode.k": 2, "episode.query_per_class": 3, "episode.count": 2,
    "train.epochs": 2, "adapt.prompt_len": 4,
}


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(RunConfig(dict(SMALL)).text())
    return str(path)


@pytest.fixture(scope="module")
def trained(cfg_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    assert main(["train", "--config", cfg_file, "--out", str(out)]) == 0
    return out


def read_report(path):
    """(header, rows) of a report CSV, asserting the comment line."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# tool=fsad 0.1.0 config=")
    parsed = list(csv.reader(lines[1:]))
    return parsed[0], parsed[1:]


def col(header, rows, name):
    i = header.index(name)
    return [r[i] for r in rows]


def test_synth_manifest_idempotent(cfg_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--config", cfg_file, "--out", str(a)]) == 0
    assert main(["synth", "--config", cfg_file, "--out", str(b)]) == 0
    assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()
    lines = (a / "manifest.txt").read_text().splitlines()
    assert "# samples=24" in lines
    data = lines[lines.index("index,label,center_y,center_x,radius") + 1:]
    assert len(data) == 24
    assert data[0].startswith("0,0,") and data[12].startswith("12,1,")


def test_synth_emit_features_roundtrip(cfg_file, tmp_path):
    out = tmp_path / "s"
    assert main(["synth", "--config", cfg_file, "--out", str(out),
                 "--emit-features"]) == 0
    files = sorted((out / "features").glob("*.haafb"))
    assert len(files) == 24
    cfg = load_config(cfg_file)
    store = build_feature_store(cfg.backbone_spec(),
                                generate_dataset(cfg.dataset_spec()))
    bundle = load_feature_bundle(str(files[5]))
    assert bundle.d == 16
    assert sorted(bundle.visual) == [2, 4]
    # bundles store features at f32 precision
    np.testing.assert_array_equal(bundle.visual[4],
                                  store.feats[4][5].astype(np.float32))


def test_train_outputs_and_determinism(cfg_file, trained, tmp_path):
    header, rows = read_report(trained / "trace.csv")
    assert header == ["epoch", "lr_fast", "lr_slow", "loss"]
    assert len(rows) == SMALL["train.epochs"]
    again = tmp_path / "again"
    assert main(["train", "--config", cfg_file, "--out", str(again)]) == 0
    assert ((trained / "model.ckpt").read_bytes()
            == (again / "model.ckpt").read_bytes())
    assert ((trained / "trace.csv").read_bytes()
            == (again / "trace.csv").read_bytes())


def test_train_epochs_zero_is_initialization(cfg_file, tmp_path):
    out = tmp_path / "t0"
    assert main(["train", "--config", cfg_file, "--out", str(out),
                 "--epochs", "0"]) == 0
    _, tensors = load_checkpoint(str(out / "model.ckpt"))
    init = named_parameters(model_from_config(load_config(cfg_file)))
    assert set(tensors) == set(init)
    for name, arr in tensors.items():
        np.testing.assert_array_equal(arr, init[name].data)
    assert read_report(out / "trace.csv")[1] == []


def test_eval_reports(cfg_file, trained, tmp_path):
    out = tmp_path / "e"
    assert main(["eval", "--config", cfg_file, "--out", str(out),
                 "--checkpoint", str(trained / "model.ckpt")]) == 0
    header, rows = read_report(out / "metrics.csv")
    assert len(rows) == SMALL["episode.count"]
    assert col(header, rows, "strategy") == ["seq", "seq"]
    sheader, srows = read_report(out / "scores.csv")
    queries = 2 * SMALL["episode.query_per_class"]
    assert len(srows) == SMALL["episode.count"] * queries
    assert set(col(sheader, srows, "episode")) == {"0", "1"}


def test_eval_lambda_endpoints_match_branches(cfg_file, trained, tmp_path):
    for lam, branch in (("1.0", "s_sem"), ("0.0", "s_proto")):
        out = tmp_path / f"lam{lam}"
        assert main(["eval", "--config", cfg_file, "--out", str(out),
                     "--checkpoint", str(trained / "model.ckpt"),
                     "--lam", lam]) == 0
        header, rows = read_report(out / "scores.csv")
        assert col(header, rows, "s_final") == col(header, rows, branch)


def test_eval_episode_count_mirror(cfg_file, trained, tmp_path):
    out = tmp_path / "e3"
    assert main(["eval", "--config", cfg_file, "--out", str(out),
                 "--checkpoint", str(trained / "model.ckpt"),
                 "--episodes", "3"]) == 0
    assert len(read_report(out / "metrics.csv")[1]) == 3


def test_eval_compat_error_names_field(cfg_file, trained, tmp_path, capsys):
    rc = main(["eval", "--config", cfg_file, "--out", str(tmp_path / "x"),
               "--checkpoint", str(trained / "model.ckpt"),
               "--set", "adapt.prompt_len=6"])
    assert rc != 0
    err = capsys.readouterr().err
    assert "error[compat]" in err and "prompt_len" in err


def test_diverging_train_is_a_numeric_error(cfg_file, tmp_path, capsys):
    with np.errstate(all="ignore"):
        rc = main(["train", "--config", cfg_file, "--out", str(tmp_path / "x"),
                   "--epochs", "30", "--set", "train.lr_fast=1e3",
                   "--set", "train.lr_slow=1e3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error[numeric]" in err and "non-finite loss at epoch" in err
    assert not (tmp_path / "x" / "model.ckpt").exists()


def test_eval_rejects_non_finite_checkpoint(cfg_file, tmp_path, capsys):
    model = model_from_config(load_config(cfg_file))
    named_parameters(model)["logit.rho"].data = np.asarray(np.inf)
    path = tmp_path / "bad.ckpt"
    save_checkpoint(model, str(path))
    rc = main(["eval", "--config", cfg_file, "--out", str(tmp_path / "x"),
               "--checkpoint", str(path)])
    assert rc == 1
    assert "error[numeric]" in capsys.readouterr().err


def test_eval_rejects_a_checkpoint_tensor_above_numpy_rank(cfg_file, tmp_path,
                                                          capsys):
    # rank 65 with every dim 1: numpy's reshape used to raise a bare
    # ValueError out of main
    meta = checkpoint_meta(model_from_config(load_config(cfg_file)))
    path = tmp_path / "deep.ckpt"
    write_checkpoint(str(path), meta, {"logit.rho": np.ones(1)})
    blob = path.read_bytes()
    rank_at = len(blob) - 16  # the rank field, then one dim and one f64
    path.write_bytes(blob[:rank_at] + struct.pack("<I", 65)
                     + struct.pack("<I", 1) * 65 + blob[-8:])
    rc = main(["eval", "--config", cfg_file, "--out", str(tmp_path / "x"),
               "--checkpoint", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[format]") and "Traceback" not in err
    assert f"rank 65 exceeds 64 (at byte offset {rank_at})" in err


def test_eval_missing_checkpoint(cfg_file, tmp_path, capsys):
    rc = main(["eval", "--config", cfg_file, "--out", str(tmp_path / "x"),
               "--checkpoint", str(tmp_path / "nope.ckpt")])
    assert rc != 0
    assert "error[io]" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["missing", "truncated"])
def test_eval_refuses_a_bad_checkpoint_before_building_the_corpus(
        cfg_file, trained, tmp_path, capsys, monkeypatch, damage):
    builds = []
    monkeypatch.setattr(cli, "build_feature_store",
                        lambda *a: builds.append(a) or build_feature_store(*a))
    path = tmp_path / "model.ckpt"
    if damage == "truncated":
        blob = (trained / "model.ckpt").read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
    out = tmp_path / "x"
    rc = main(["eval", "--config", cfg_file, "--out", str(out),
               "--checkpoint", str(path)])
    assert rc == 1
    category = {"missing": "io", "truncated": "format"}[damage]
    assert capsys.readouterr().err.startswith(f"error[{category}]")
    assert builds == []
    assert (out / "effective.cfg").exists()


def test_ablate_reports(cfg_file, tmp_path):
    out = tmp_path / "a"
    assert main(["ablate", "--config", cfg_file, "--out", str(out)]) == 0
    header, rows = read_report(out / "ablate_strategies.csv")
    assert col(header, rows, "row") == ["1", "2", "3", "4", "5", "6"]
    assert col(header, rows, "strategy") == ["none"] * 3 + ["v2t", "t2v", "seq"]
    assert rows[0][header.index("adapters")] == "false"
    # row 1 is the zero-adaptation baseline: untrained, semantic branch only
    cfg = load_config(cfg_file)
    dataset = generate_dataset(cfg.dataset_spec())
    store = build_feature_store(cfg.backbone_spec(), dataset)
    sem_only = RunConfig({**cfg.values, "infer.lam": 1.0})
    none_clsa = replace(cfg.section("clsa"), strategy="none")
    base = [run_episode(sem_only, store, dataset, i, train=False,
                        model=model_from_config(cfg, RunSpec(i, clsa=none_clsa)))
            .metrics.auc for i in range(cfg["episode.count"])]
    assert float(rows[0][header.index("auc")]) == float(np.mean(base))
    sheader, srows = read_report(out / "ablate_stages.csv")
    assert col(sheader, srows, "stage") == ["stage1", "stage2", "all"]
    assert srows[-1][sheader.index("visual_taps")] == "2,4"


def test_sweep_reports(cfg_file, tmp_path):
    out = tmp_path / "w"
    assert main(["sweep", "--config", cfg_file, "--out", str(out)]) == 0
    header, rows = read_report(out / "sweep_lambda.csv")
    assert len(rows) == 11 * (SMALL["episode.count"] + 1)
    assert col(header, rows, "seed").count("mean") == 11
    bheader, brows = read_report(out / "sweep_beta.csv")
    assert len(brows) == 5 * (SMALL["episode.count"] + 1)
    # the beta=0 rows must equal strategy=none evaluations exactly
    cfg = load_config(cfg_file)
    dataset = generate_dataset(cfg.dataset_spec())
    store = build_feature_store(cfg.backbone_spec(), dataset)
    none_clsa = replace(cfg.section("clsa"), strategy="none")
    none = [run_episode(cfg, store, dataset, i, model=model_from_config(
                cfg, RunSpec(i, clsa=none_clsa))).metrics.auc
            for i in range(cfg["episode.count"])]
    zero = [float(r[bheader.index("auc")]) for r in brows
            if r[bheader.index("value")] == "0.0"
            and r[bheader.index("seed")] != "mean"]
    assert zero == none


def test_ablate_prints_the_strategy_table_then_the_stage_table(cfg_file, tmp_path,
                                                                capsys):
    assert main(["ablate", "--config", cfg_file, "--out", str(tmp_path / "a")]) == 0
    titles = [line for line in capsys.readouterr().out.splitlines()
              if not line.startswith("  ")]
    episodes = SMALL["episode.count"]
    assert titles == [f"component/strategy grid (mean over {episodes} episodes)",
                      f"stage grid (mean over {episodes} episodes)"]


@pytest.mark.parametrize("which, title", [("lambda", "ensemble weight sweep"),
                                          ("beta", "gate value sweep")])
def test_sweep_which_runs_only_that_sweep(cfg_file, tmp_path, capsys, which, title):
    out = tmp_path / "w"
    assert main(["sweep", "--config", cfg_file, "--out", str(out),
                 "--which", which]) == 0
    assert sorted(p.name for p in out.glob("sweep_*.csv")) == [f"sweep_{which}.csv"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"{title} (mean rows)"
    assert all(line.startswith("  ") for line in printed[1:])


def test_diverging_train_reports_only_numeric_error(cfg_file, tmp_path, capsys):
    # under the suite's error::RuntimeWarning filter a numpy overflow
    # warning would escape as an exception instead of error[numeric]
    assert main(["train", "--config", cfg_file, "--out", str(tmp_path),
                 "--set", "train.lr_fast=1e3", "--set", "train.lr_slow=1e3",
                 "--set", "train.epochs=30"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[numeric]: training diverged")
    assert "Warning" not in err


def test_gradcheck_reports_every_parameter(cfg_file, tmp_path):
    out = tmp_path / "g"
    assert main(["gradcheck", "--config", cfg_file, "--out", str(out)]) == 0
    header, rows = read_report(out / "gradcheck.csv")
    names = set(col(header, rows, "name"))
    params = named_parameters(model_from_config(load_config(cfg_file)))
    assert set(params) <= names
    assert all(ok == "true" for ok in col(header, rows, "ok"))


def test_gradcheck_corrupt_mode_fails_but_exits_zero(cfg_file, tmp_path):
    out = tmp_path / "gc"
    assert main(["gradcheck", "--config", cfg_file, "--out", str(out),
                 "--corrupt"]) == 0
    header, rows = read_report(out / "gradcheck.csv")
    assert "false" in col(header, rows, "ok")


def test_error_and_usage_exit_codes(cfg_file, capsys):
    assert main(["train", "--config", cfg_file, "--set", "bogus.key=1"]) == 1
    assert "error[config]" in capsys.readouterr().err
    assert main(["train", "--config", "/does/not/exist.cfg"]) == 1
    assert "error[config]" in capsys.readouterr().err
    assert main(["frobnicate"]) == 2  # argparse usage error
    assert main(["eval"]) == 2  # missing required --checkpoint


@pytest.mark.parametrize("assignment", [
    "backbone.heads=0", "backbone.heads=-4", "backbone.d=0", "backbone.d=-4",
    "adapt.reduction=0", "adapt.reduction=-4", "clsa.heads=0", "clsa.heads=-4"])
def test_nonpositive_sizes_are_config_errors(cfg_file, tmp_path, capsys,
                                             assignment):
    assert main(["train", "--config", cfg_file, "--out", str(tmp_path),
                 "--set", assignment]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]") and "Traceback" not in err


@pytest.mark.parametrize("key", ["model.seed", "episode.seed", "data.seed",
                                 "backbone.seed"])
def test_negative_seeds_are_config_errors(cfg_file, tmp_path, capsys, key):
    assert main(["train", "--config", cfg_file, "--out", str(tmp_path),
                 "--set", f"{key}=-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[config]: {key} must be >= 0")
    assert "Traceback" not in err


@pytest.mark.parametrize("assignment", ["train.lr_fast=1e308",
                                        "train.weight_decay=1e308"])
def test_huge_rate_is_one_numeric_error_at_alignment(cfg_file, tmp_path, capsys,
                                                     assignment):
    # training ends with finite but huge parameters; under the suite's
    # error::RuntimeWarning filter an overflow warning in the alignment
    # would escape as an exception instead of error[numeric]
    assert main(["train", "--config", cfg_file, "--out", str(tmp_path),
                 "--set", "train.epochs=1", "--set", assignment]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[numeric]: alignment diverged") and "tap 2" in err
    assert "Warning" not in err and "Traceback" not in err


@pytest.mark.parametrize("assignment", [
    "train.eps=-1", "train.weight_decay=-0.5", "train.beta2=1.5",
    "train.beta1=1.0", "data.contrast_shift=inf", "train.lr_fast=nan",
    "train.lr_slow=inf", "clsa.gate_init=nan", "adapt.alpha_init=inf",
    "data.noise_std=nan", "infer.eps=nan"])
def test_bad_float_settings_are_config_errors(cfg_file, tmp_path, capsys,
                                              assignment):
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_file, "--out", str(out),
                 "--set", assignment]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("assignment", ["data.freq_max=1e308",
                                        "data.anomaly_freq_factor=1e308"])
def test_huge_frequencies_are_config_errors(cfg_file, tmp_path, capsys,
                                            assignment):
    # the rendered sinusoid's phase used to overflow: numpy warned, the
    # corpus held non-finite pixels and training took the blame as
    # error[numeric]
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--config", cfg_file, "--out", str(out),
                     "--set", "train.epochs=1", "--set", assignment])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]") and "Traceback" not in err
    assert assignment.split("=")[0] in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("assignment", [
    "clsa.heads=3", "adapt.reduction=3", "episode.query_per_class=11",
    "backbone.patch_grid=3,3"])
def test_settings_contradicting_another_section_are_config_errors(
        cfg_file, tmp_path, capsys, assignment):
    # each is valid on its own and clashes with a SMALL setting of another
    # section; the error names both keys and comes before any output
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_file, "--out", str(out),
                 "--set", assignment]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]") and "Traceback" not in err
    assert assignment.split("=")[0] in err
    assert not out.exists()


def test_repeated_visual_tap_is_a_config_error(cfg_file, tmp_path, capsys):
    # adapters and alignment blocks are keyed by visual tap: the second pair
    # used to overwrite the first and the run exited 0 with fewer parameters
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_file, "--out", str(out),
                 "--set", "backbone.visual_taps=2,2",
                 "--set", "backbone.text_taps=1,2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]: visual tap 2 ") and "Traceback" not in err
    assert not out.exists()


def test_width_one_is_a_config_error(cfg_file, tmp_path, capsys):
    # at width 1 the normal class embedding's half would be empty
    out = tmp_path / "run"
    sets = ["backbone.d=1", "backbone.heads=1", "clsa.heads=1",
            "adapt.reduction=1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--config", cfg_file, "--out", str(out)]
                    + [arg for item in sets for arg in ("--set", item)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error[config]")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_multiline_out_is_a_config_error(cfg_file, tmp_path, capsys):
    # a line break in run.out would break the effective.cfg echo
    assert main(["train", "--config", cfg_file,
                 "--out", f"{tmp_path}/a\nb"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]") and "run.out" in err
    assert not any(tmp_path.iterdir())


def test_config_echo_reproduces_run(cfg_file, trained, tmp_path):
    out = tmp_path / "re"
    echo = trained / "effective.cfg"
    assert main(["train", "--config", str(echo), "--out", str(out)]) == 0
    assert ((out / "model.ckpt").read_bytes()
            == (trained / "model.ckpt").read_bytes())


def test_seed_flag_overrides_episode_seed(cfg_file, tmp_path):
    out = tmp_path / "sd"
    assert main(["synth", "--config", cfg_file, "--out", str(out),
                 "--seed", "7"]) == 0
    assert "episode.seed = 7" in (out / "effective.cfg").read_text()
