"""Dual-branch scoring: closed-form oracles for both branches and the blend."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsad import numcore as nc
from fsad.backbone import BackboneSpec
from fsad.config import RunConfig
from fsad.errors import CapacityError, ContractError, DomainError
from fsad.inference import (build_prototypes, ensemble, minmax_normalize,
                            proto_distance, proto_scores, score_batch,
                            semantic_scores)
from fsad.model import forward, init_model, named_parameters
from fsad.numcore import Tensor
from fsad.runner import build_feature_store, model_from_config, take
from fsad.synthdata import generate_dataset, sample_episode

D = 16


def rand_visual(seed, layers=(2, 4), p=5, batch=None):
    rng = np.random.default_rng(seed)
    shape = (p, D) if batch is None else (batch, p, D)
    return {l: Tensor(rng.normal(size=shape)) for l in layers}


def sem_oracle(visual, t_abn, tau):
    per_layer = []
    for l in sorted(visual):
        v = visual[l].data
        logits = tau * (v @ t_abn)
        per_layer.append((1.0 / (1.0 + np.exp(-logits))).mean(axis=-1))
    return np.mean(per_layer, axis=0)


def test_semantic_scores_matches_loop_oracle():
    visual = rand_visual(0)
    t_abn = Tensor(np.random.default_rng(1).normal(size=D))
    tau = Tensor(np.asarray(10.0))
    got = semantic_scores(visual, t_abn, tau)
    assert got.shape == ()
    np.testing.assert_allclose(got.data, sem_oracle(visual, t_abn.data, 10.0),
                               rtol=0, atol=1e-12)


def test_semantic_scores_batched():
    visual = rand_visual(2, batch=4)
    t_abn = Tensor(np.random.default_rng(3).normal(size=D))
    tau = Tensor(np.asarray(3.0))
    got = semantic_scores(visual, t_abn, tau)
    assert got.shape == (4,)
    np.testing.assert_allclose(got.data, sem_oracle(visual, t_abn.data, 3.0),
                               rtol=0, atol=1e-12)
    # each row scored independently
    single = {l: Tensor(v.data[2]) for l, v in visual.items()}
    np.testing.assert_allclose(semantic_scores(single, t_abn, tau).data,
                               got.data[2], rtol=0, atol=1e-12)


def test_semantic_scores_lie_in_unit_interval():
    visual = rand_visual(4, batch=8)
    t_abn = Tensor(np.random.default_rng(5).normal(size=D))
    s = semantic_scores(visual, t_abn, Tensor(np.asarray(50.0))).data
    assert np.all(s > 0) and np.all(s < 1)


def test_semantic_scores_needs_layers():
    with pytest.raises(ContractError):
        semantic_scores({}, Tensor(np.zeros(D)), Tensor(np.asarray(1.0)))


def test_build_prototypes_hand_mean():
    rng = np.random.default_rng(8)
    feats = {2: Tensor(rng.normal(size=(6, 5, D)))}
    idx = {"normal": [0, 2, 4], "abnormal": [1, 3, 5]}
    protos = build_prototypes(feats, idx)
    for cls, rows in idx.items():
        want = feats[2].data[rows].mean(axis=1).mean(axis=0)
        np.testing.assert_allclose(protos.vectors[cls][2], want, rtol=0, atol=1e-12)


def test_build_prototypes_rejects_empty_class():
    feats = {2: Tensor(np.zeros((2, 5, D)))}
    with pytest.raises(CapacityError):
        build_prototypes(feats, {"normal": [0, 1], "abnormal": []})


def test_proto_distance_matches_cosine_loop():
    rng = np.random.default_rng(9)
    idx = {"normal": [0, 1, 2], "abnormal": [3, 4, 5]}
    support = {l: Tensor(rng.normal(size=(6, 5, D))) for l in (2, 4)}
    protos = build_prototypes(support, idx)
    query = rand_visual(10, layers=(2, 4), p=5, batch=3)
    with pytest.raises(DomainError):
        proto_distance(query, protos, "defective")
    got = proto_distance(query, protos, "abnormal")
    assert got.shape == (3,)
    want = np.zeros(3)
    for l in (2, 4):
        pv = protos.vectors["abnormal"][l]
        for b in range(3):
            rows = query[l].data[b]
            cos = np.array([r @ pv / (np.linalg.norm(r) * np.linalg.norm(pv))
                            for r in rows])
            want[b] += 1.0 - cos.mean()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_proto_scores_relative_proximity():
    d_n = np.array([1.0, 0.0, 2.0])
    d_a = np.array([1.0, 2.0, 0.0])
    got = proto_scores(d_n, d_a, eps=0.0 + 1e-12)
    np.testing.assert_allclose(got, [0.5, 0.0, 1.0], atol=1e-9)
    with pytest.raises(DomainError):
        proto_scores(d_n, d_a, eps=0.0)
    with pytest.raises(DomainError):
        proto_scores(d_n, d_a, eps=-1.0)


def test_minmax_normalize_oracle():
    np.testing.assert_allclose(minmax_normalize([1.0, 3.0, 2.0]), [0.0, 1.0, 0.5])
    np.testing.assert_allclose(minmax_normalize([4.0, 4.0, 4.0]), [0.5, 0.5, 0.5])
    with pytest.raises(ContractError):
        minmax_normalize([])


def test_ensemble_endpoints_bit_exact():
    rng = np.random.default_rng(11)
    a = rng.uniform(size=10)
    b = rng.uniform(size=10)
    np.testing.assert_array_equal(ensemble(a, b, 1.0), a)
    np.testing.assert_array_equal(ensemble(a, b, 0.0), b)
    np.testing.assert_allclose(ensemble(a, b, 0.25), 0.25 * a + 0.75 * b)
    with pytest.raises(DomainError):
        ensemble(a, b, 1.5)
    with pytest.raises(ContractError):
        ensemble(a, b[:5], 0.5)


def small_model():
    spec = BackboneSpec(d=D, vision_layers=4, text_layers=2, selected_visual=(2, 4),
                        selected_text=(1, 2), patch_grid=(2, 2), heads=4, seed=5)
    return init_model(spec, seed=7)


def test_score_batch_fields_consistent():
    model = small_model()
    rng = np.random.default_rng(12)
    support = {l: Tensor(rng.normal(size=(8, model.spec.patches, D)))
               for l in (2, 4)}
    idx = {"normal": [0, 1, 2, 3], "abnormal": [4, 5, 6, 7]}
    protos = build_prototypes(support, idx)
    query = {l: Tensor(rng.normal(size=(6, model.spec.patches, D))) for l in (2, 4)}
    labels = [0, 0, 0, 1, 1, 1]
    rep = score_batch(model, query, labels, protos, lam=0.3)
    for field in (rep.sem_raw, rep.proto_raw, rep.sem_norm, rep.proto_norm, rep.final):
        assert field.shape == (6,)
    np.testing.assert_array_equal(rep.labels, labels)
    np.testing.assert_allclose(rep.sem_norm, minmax_normalize(rep.sem_raw))
    np.testing.assert_allclose(rep.proto_norm, minmax_normalize(rep.proto_raw))
    np.testing.assert_allclose(rep.final, 0.3 * rep.sem_norm + 0.7 * rep.proto_norm)
    assert rep.lam == 0.3


def test_score_batch_lambda_endpoints_match_single_branches():
    model = small_model()
    rng = np.random.default_rng(13)
    support = {l: Tensor(rng.normal(size=(4, model.spec.patches, D)))
               for l in (2, 4)}
    protos = build_prototypes(support, {"normal": [0, 1], "abnormal": [2, 3]})
    query = {l: Tensor(rng.normal(size=(5, model.spec.patches, D))) for l in (2, 4)}
    labels = [0, 0, 1, 1, 1]
    sem_only = score_batch(model, query, labels, protos, lam=1.0)
    proto_only = score_batch(model, query, labels, protos, lam=0.0)
    np.testing.assert_array_equal(sem_only.final, sem_only.sem_norm)
    np.testing.assert_array_equal(proto_only.final, proto_only.proto_norm)


# ---------------------------------------------------------------------------
# batch invariance of the raw branch scores

@pytest.fixture(scope="module")
def wide_episode():
    """A seq model with every parameter jittered off its init (open gates,
    live adapters) and one episode of 392 queries, as ``fsad eval`` scores."""
    cfg = RunConfig({"episode.query_per_class": 196})
    dataset = generate_dataset(cfg.dataset_spec())
    store = build_feature_store(cfg.backbone_spec(), dataset)
    model = model_from_config(cfg)
    rng = np.random.default_rng(41)
    for p in named_parameters(model).values():
        p.data = p.data + rng.normal(0.0, 0.05, size=p.shape)
    ep = sample_episode(dataset, cfg["episode.k"], 0, cfg["episode.query_per_class"])
    taps = model.spec.selected_visual
    with nc.no_grad():
        sup = forward(model, {l: Tensor(a) for l, a in
                              take(store, taps, ep.support_ids).items()})
    protos = build_prototypes(sup.visual, {"normal": ep.idx_norm,
                                           "abnormal": ep.idx_abn})
    query = take(store, taps, ep.query_ids)
    labels = store.labels[ep.query_ids]
    whole = score_batch(model, {l: Tensor(a) for l, a in query.items()},
                        labels, protos)
    return model, protos, query, labels, whole


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_raw_scores_bit_identical_across_chunks_and_order(wide_episode, data):
    model, protos, query, labels, whole = wide_episode
    n = labels.size
    order = np.array(data.draw(st.permutations(range(n)), label="order"))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=12),
                            label="cuts"))
    sem = np.empty(n)
    proto = np.empty(n)
    for ids in np.split(order, cuts):
        rep = score_batch(model, {l: Tensor(a[ids]) for l, a in query.items()},
                          labels[ids], protos)
        sem[ids] = rep.sem_raw
        proto[ids] = rep.proto_raw
    assert np.array_equal(sem, whole.sem_raw)
    assert np.array_equal(proto, whole.proto_raw)


def test_raw_scores_bit_identical_one_query_at_a_time(wide_episode):
    model, protos, query, labels, whole = wide_episode
    for i in range(labels.size):
        rep = score_batch(model, {l: Tensor(a[i:i + 1]) for l, a in query.items()},
                          labels[i:i + 1], protos)
        assert rep.sem_raw[0] == whole.sem_raw[i]
        assert rep.proto_raw[0] == whole.proto_raw[i]
