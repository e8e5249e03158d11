"""Release acceptance suite: ten numbered criteria, one test and one
printed PASS/FAIL line each (run with -s to see the lines).

The grids and efficacy checks run a scaled benchmark protocol on top of the
default configuration: 20 episodes, 100 epochs, learning rates 0.03/0.003.
The rate scaling keeps the documented 10:1 fast/slow differential while
giving the adapters enough movement to register against O(1) frozen
features within the runtime budget.
"""

from fractions import Fraction

import numpy as np
import pytest

from fsad import numcore as nc
from fsad.adaptation import (AdaptSpec, apply_text_adapter,
                             apply_visual_adapter, init_adaptation)
from fsad.backbone import (BackboneSpec, FeatureBundle, load_feature_bundle,
                           save_feature_bundle)
from fsad.cli import main
from fsad.clsa import ClsaSpec, clsa_forward, init_clsa
from fsad.config import RunConfig
from fsad.errors import CompatError, FormatError
from fsad.evalmetrics import auc, average_precision
from fsad.inference import ensemble
from fsad.model import (apply_checkpoint, forward, init_model,
                        named_parameters, save_checkpoint, state_checksum)
from fsad.numcore import Tensor
from fsad.runner import (ablate, build_feature_store, gradcheck_all,
                         model_from_config, run_episode)
from fsad.synthdata import generate_dataset

PROTOCOL = {"episode.count": 20, "train.epochs": 100,
            "train.lr_fast": 0.03, "train.lr_slow": 0.003}


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def raises(exc_type, fn) -> bool:
    try:
        fn()
    except exc_type:
        return True
    except Exception:
        return False
    return False


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(dict(PROTOCOL))


@pytest.fixture(scope="module")
def world(cfg):
    dataset = generate_dataset(cfg.dataset_spec())
    return dataset, build_feature_store(cfg.backbone_spec(), dataset)


@pytest.fixture(scope="module")
def grids(cfg, world):
    # both grids from one plan, as fsad ablate runs them: the all-stages
    # row reads the seq row's trainings
    dataset, store = world
    return ablate(cfg, store, dataset)


@pytest.fixture(scope="module")
def sgrid(grids):
    return grids[0]


@pytest.fixture(scope="module")
def tgrid(grids):
    return grids[1]


def test_01_gradient_correctness():
    base = RunConfig({})
    rows = gradcheck_all(base)
    params = set(named_parameters(model_from_config(base)))
    listed = {r.name for r in rows if r.group != "op"}
    worst = max(r.rel_err for r in rows)
    check(1, "gradient correctness",
          all(r.ok for r in rows) and worst < 1e-4 and listed == params,
          f"{len(rows)} checks, max rel err {worst:.2e}, "
          f"{len(params)} parameters listed")


def test_02_gate_identity_suite():
    rng = np.random.default_rng(5)
    spec = BackboneSpec()
    pairs = list(zip(spec.selected_visual, spec.selected_text))
    visual = {vl: Tensor(rng.normal(size=(spec.patches, spec.d)))
              for vl, _ in pairs}
    text = {tl: {cls: Tensor(rng.normal(size=(9, spec.d)))
                 for cls in ("normal", "abnormal")} for _, tl in pairs}

    state = init_clsa(pairs, spec.d, 1, ClsaSpec(heads=spec.heads))  # gates init to 0
    out = clsa_forward(pairs, visual, text, state, "seq")
    clsa_id = (all(np.array_equal(out.visual[vl].data, visual[vl].data)
                   for vl, _ in pairs)
               and all(np.array_equal(out.text_refined[tl][c].data,
                                      text[tl][c].data)
                       for _, tl in pairs for c in ("normal", "abnormal")))

    adapt = init_adaptation(spec, 2, AdaptSpec())
    ad = adapt.text_adapters[spec.selected_text[0]]
    ad.up.data = rng.normal(size=ad.up.data.shape)  # loaded, not zero-init
    t = Tensor(rng.normal(size=(9, spec.d)))
    text_id = np.array_equal(
        apply_text_adapter(t, ad, Tensor(np.asarray(0.0))).data, t.data)

    v = Tensor(rng.normal(size=(spec.patches, spec.d)))
    fresh = init_adaptation(spec, 3, AdaptSpec()).visual_adapters[spec.selected_visual[0]]
    visual_id = np.array_equal(apply_visual_adapter(v, fresh).data, v.data)

    model = init_model(spec, seed=4)  # zero-init adapters, zero gates
    step0 = forward(model, visual)
    model_id = all(np.array_equal(step0.visual[vl].data, visual[vl].data)
                   for vl, _ in pairs)

    check(2, "gate/identity suite",
          clsa_id and text_id and visual_id and model_id,
          "closed-gate alignment, zero-alpha text, zero-init visual, "
          "step-0 model: all bit-exact")


def brute_auc(s, y) -> Fraction:
    pos = [x for x, l in zip(s, y) if l == 1]
    neg = [x for x, l in zip(s, y) if l == 0]
    num = sum(2 if p > n else (1 if p == n else 0) for p in pos for n in neg)
    return Fraction(num, 2 * len(pos) * len(neg))


def brute_ap(s, y) -> float:
    n_pos = sum(y)
    ap = 0.0
    tp_prev = 0
    for t in sorted(set(s), reverse=True):
        tp = sum(1 for x, l in zip(s, y) if l == 1 and x >= t)
        seen = sum(1 for x in s if x >= t)
        if tp > tp_prev:
            ap += (tp - tp_prev) / n_pos * (tp / seen)
        tp_prev = tp
    return ap


def test_03_metric_oracles():
    rng = np.random.default_rng(303)
    auc_ok = ap_ok = comp_ok = 0
    for trial in range(200):
        n = int(rng.integers(2, 13))
        n_pos = int(rng.integers(1, n))
        y = np.array([1] * n_pos + [0] * (n - n_pos))
        rng.shuffle(y)
        s = (rng.integers(0, 5, size=n) / 4.0 if trial % 2
             else rng.normal(size=n))
        sl, yl = [float(x) for x in s], [int(x) for x in y]
        frac = brute_auc(sl, yl)
        auc_ok += auc(s, y) == float(frac)
        ap_ok += average_precision(s, y) == brute_ap(sl, yl)
        # complement identity, exact at the rational level
        comp_ok += auc(s, 1 - y) == float(1 - frac)
    check(3, "metric oracles",
          auc_ok == ap_ok == comp_ok == 200,
          f"auc {auc_ok}/200, ap {ap_ok}/200, complement {comp_ok}/200, "
          "all exact")


def test_04_sequentiality_probe():
    rng = np.random.default_rng(9)
    spec = BackboneSpec()
    pairs = list(zip(spec.selected_visual, spec.selected_text))
    visual = {vl: Tensor(rng.normal(size=(spec.patches, spec.d)))
              for vl, _ in pairs}
    bumped = {vl: Tensor(v.data + 0.25) for vl, v in visual.items()}
    text = {tl: {cls: Tensor(rng.normal(size=(9, spec.d)))
                 for cls in ("normal", "abnormal")} for _, tl in pairs}
    state = init_clsa(pairs, spec.d, 6, ClsaSpec(heads=spec.heads, gate_init=0.5))
    probe = pairs[0][0]
    moved = {}
    for strategy in ("seq", "t2v"):
        k1 = clsa_forward(pairs, visual, text, state, strategy).guidance_keys[probe]
        k2 = clsa_forward(pairs, bumped, text, state, strategy).guidance_keys[probe]
        moved[strategy] = not np.array_equal(k1.data, k2.data)
    check(4, "sequentiality probe", moved["seq"] and not moved["t2v"],
          "guidance keys track perturbed visual input in seq, stay fixed in t2v")


def test_05_training_efficacy(cfg, sgrid):
    seq = [trace for trace in sgrid.cells["seq_dual"].traces if trace]
    first = np.mean([trace[0].loss for trace in seq])
    last = np.mean([trace[-1].loss for trace in seq])
    gain = sgrid.cells["seq_dual"].auc - sgrid.cells["untrained_dual"].auc
    check(5, "training efficacy", last < first and gain >= 0.05,
          f"support loss {first:.4f} -> {last:.4f}, "
          f"query auc gain {gain:+.4f} (needs >= +0.05) "
          f"over {cfg['episode.count']} 4-shot episodes")


def test_06_strategy_ablation_ordering(sgrid):
    by = {r["row"]: r["auc"] for r in sgrid.rows}
    seq, none_dual = by[6], by[3]
    single = max(by[4], by[5])
    print("component/strategy grid:")
    for r in sgrid.rows:
        print(f"  row {r['row']}: adapters={str(r['adapters']).lower():5s} "
              f"strategy={r['strategy']:4s} dual={str(r['dual']).lower():5s} "
              f"auc={r['auc']:.4f} ap={r['ap']:.4f}")
    check(6, "strategy ablation ordering",
          seq >= single - 0.01 and seq >= none_dual + 0.02,
          f"seq {seq:.4f} vs best single {single:.4f} (tol -0.01) "
          f"and none {none_dual:.4f} (needs +0.02)")


def test_07_stage_ablation(tgrid):
    aucs = {r["stage"]: r["auc"] for r in tgrid.rows}
    best_single = max(v for k, v in aucs.items() if k != "all")
    print("stage grid:")
    for r in tgrid.rows:
        print(f"  {r['stage']:6s} visual={r['visual_taps']:8s} "
              f"text={r['text_taps']:8s} auc={r['auc']:.4f} ap={r['ap']:.4f}")
    check(7, "stage ablation",
          len(tgrid.rows) == 5 and aucs["all"] >= best_single - 0.01,
          f"all stages {aucs['all']:.4f} vs best single {best_single:.4f} "
          "(tol -0.01), 5 rows")


def test_08_ensemble_endpoints(cfg, world):
    dataset, store = world
    rep = run_episode(cfg, store, dataset, 0).report
    hi = ensemble(rep.sem_norm, rep.proto_norm, 1.0)
    lo = ensemble(rep.sem_norm, rep.proto_norm, 0.0)
    ends = (np.array_equal(hi, rep.sem_norm)
            and np.array_equal(lo, rep.proto_norm))
    default_half = RunConfig({})["infer.lam"] == 0.5 and rep.lam == 0.5
    check(8, "ensemble endpoints", ends and default_half,
          "endpoint blends bit-exact, default weight 0.5")


def test_09_determinism(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(RunConfig(dict(PROTOCOL)).text())
    outs = []
    for tag in ("a", "b"):
        tdir, edir = tmp_path / f"train_{tag}", tmp_path / f"eval_{tag}"
        assert main(["train", "--config", str(cfgfile), "--out", str(tdir)]) == 0
        assert main(["eval", "--config", str(cfgfile), "--out", str(edir),
                     "--checkpoint", str(tdir / "model.ckpt")]) == 0
        outs.append((tdir, edir))
    (ta, ea), (tb, eb) = outs
    same_ckpt = ((ta / "model.ckpt").read_bytes()
                 == (tb / "model.ckpt").read_bytes())
    same_metrics = ((ea / "metrics.csv").read_bytes()
                    == (eb / "metrics.csv").read_bytes())
    same_scores = ((ea / "scores.csv").read_bytes()
                   == (eb / "scores.csv").read_bytes())
    check(9, "determinism", same_ckpt and same_metrics and same_scores,
          "repeated train+eval: identical checkpoint and byte-equal reports")


def test_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(10)
    f32 = lambda shape: rng.normal(size=shape).astype(np.float32).astype(np.float64)
    bundle = FeatureBundle(
        d=8, visual={2: f32((5, 8)), 4: f32((5, 8))})
    bpath = tmp_path / "x.haafb"
    save_feature_bundle(bundle, str(bpath))
    bundle_ok = load_feature_bundle(str(bpath)) == bundle

    spec = BackboneSpec()
    model = init_model(spec, seed=11)
    cpath = tmp_path / "m.ckpt"
    save_checkpoint(model, str(cpath))
    clone = init_model(spec, seed=12)
    apply_checkpoint(clone, str(cpath))
    ckpt_ok = state_checksum(clone) == state_checksum(model)

    raw = cpath.read_bytes()
    braw = bpath.read_bytes()

    def write(p, data):
        p.write_bytes(data)
        return str(p)

    bad = tmp_path / "bad.bin"
    corrupt_ok = all((
        raises(FormatError, lambda: apply_checkpoint(
            clone, write(bad, b"XXXX" + raw[4:]))),
        raises(FormatError, lambda: apply_checkpoint(
            clone, write(bad, raw[:-3]))),
        raises(FormatError, lambda: apply_checkpoint(
            clone, write(bad, raw + b"\0"))),
        raises(CompatError, lambda: apply_checkpoint(
            init_model(spec, 1, AdaptSpec(prompt_len=6)), str(cpath))),
        raises(FormatError, lambda: load_feature_bundle(
            write(bad, b"ZZZZ" + braw[4:]))),
        raises(FormatError, lambda: load_feature_bundle(
            write(bad, braw[:-2]))),
    ))
    check(10, "format round-trips", bundle_ok and ckpt_ok and corrupt_ok,
          "bundle and checkpoint bit-exact, corrupted files raise "
          "categorized errors")
