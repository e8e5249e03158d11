"""Dual-branch scoring: closed-form oracles for both branches and the blend."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsad import inference
from fsad import model as fmodel
from fsad import numcore as nc
from fsad.backbone import SCORE_BLOCK, BackboneSpec
from fsad.clsa import STRATEGIES
from fsad.config import RunConfig
from fsad.errors import (CapacityError, ContractError, DomainError, FsadError,
                         NumericError, ShapeError)
from fsad.inference import (Aligned, InferSpec, build_prototypes, ensemble,
                            minmax_normalize, proto_distance, proto_scores,
                            score_batch, semantic_scores, summaries)
from fsad.model import Recipe, align, forward, init_model, named_parameters
from fsad.numcore import Tensor
from fsad.runner import (FeatureStore, build_feature_store, model_from_config,
                         run_episode)
from fsad.synthdata import generate_dataset, sample_episode
from fsad.training import TrainConfig, train_episode

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


def aligned_of(visual, sem, ids):
    """Images ``ids`` of aligned rows ``visual`` ({tap: [N, P, d]}) as
    ``model.align`` memoizes them: by their summaries."""
    s = {l: summaries(v) for l, v in visual.items()}
    return Aligned(unit={l: u for l, (u, _) in s.items()},
                   mean={l: m for l, (_, m) in s.items()}, sem=sem, ids=ids)


def batch_of(visual, sem):
    """A batch of all of ``visual``'s images, in order."""
    return aligned_of(visual, sem, np.arange(len(sem)))


def support_of(visual, ids=None):
    """A support batch over ``visual``'s images: all of them, or ``ids``."""
    n = len(next(iter(visual.values())))
    return aligned_of(visual, np.zeros(n), np.arange(n) if ids is None else ids)


def direction(mean):
    """A class mean's prototype row: divided by its own 1-D norm, floored."""
    return mean / max(np.linalg.norm(mean), nc.NORM_FLOOR)


def test_build_prototypes_hand_mean():
    rng = np.random.default_rng(8)
    feats = {2: rng.normal(size=(6, 5, D))}
    protos = build_prototypes(support_of(feats), [0, 1, 0, 1, 0, 1])
    assert protos[2].shape == (2, D)
    for c, rows in enumerate(([0, 2, 4], [1, 3, 5])):
        mean = feats[2][rows].mean(axis=1).mean(axis=0)
        assert bits(protos[2][c]) == bits(direction(mean)), c


def test_build_prototypes_equals_a_per_class_index_mean_oracle():
    # interleaved labels over permuted and repeated memo rows: row c is
    # means[idx].mean(axis=0) over the images labelled c, in batch order
    rng = np.random.default_rng(20)
    feats = {t: rng.normal(size=(9, 5, D)) for t in (4, 1, 3)}
    ids = np.array([7, 2, 2, 0, 8, 5, 1])
    labels = [1, 0, 1, 1, 0, 0, 1]
    protos = build_prototypes(support_of(feats, ids), labels)
    assert list(protos) == [4, 1, 3]
    for t, rows in feats.items():
        means = rows[ids].mean(axis=-2)
        want = np.stack([direction(means[[i for i, y in enumerate(labels)
                                          if y == c]].mean(axis=0))
                         for c in (0, 1)])
        assert bits(protos[t]) == bits(want), t


def test_build_prototypes_rejects_empty_class():
    feats = {2: np.zeros((2, 5, D))}
    with pytest.raises(CapacityError, match="'abnormal' has no support samples"):
        build_prototypes(support_of(feats), [0, 0])


@pytest.mark.parametrize("bad", [4, 9, -1])
def test_build_prototypes_rejects_a_support_index_outside_the_batch(bad):
    # 4 and 9 used to raise a bare IndexError; -1 silently picked the last row
    feats = {2: np.zeros((4, 5, D))}
    with pytest.raises(ContractError, match=rf"image id {bad} outside \[0, 4\)"):
        build_prototypes(support_of(feats, [0, 1, 2, bad]), [0, 0, 1, 1])


@pytest.mark.parametrize("idx", [[0.0, 1.0], [True, False, True, False], [[0, 1]]])
def test_build_prototypes_takes_integer_support_indices(idx):
    # floats used to raise a bare IndexError, and a bool list silently
    # masked the support rows
    feats = {2: np.zeros((4, 5, D))}
    with pytest.raises(ContractError, match=r"image ids must be an? (1-D )?array of integers"):
        build_prototypes(support_of(feats, idx), [0, 1])


def test_build_prototypes_takes_index_arrays_as_lists():
    feats = {2: np.random.default_rng(19).normal(size=(6, 5, D))}
    ids, labels = [0, 2, 4, 1, 3, 5], [0, 0, 0, 1, 1, 1]
    as_array = build_prototypes(support_of(feats, np.array(ids)), np.array(labels))
    assert np.array_equal(build_prototypes(support_of(feats, ids), labels)[2],
                          as_array[2])


def test_proto_distance_matches_cosine_loop():
    rng = np.random.default_rng(9)
    support = {l: rng.normal(size=(6, 5, D)) for l in (2, 4)}
    protos = build_prototypes(support_of(support), [0, 0, 0, 1, 1, 1])
    query = {l: v.data for l, v in rand_visual(10, layers=(2, 4), p=5,
                                                 batch=3).items()}
    query[4][1, 2] = 0.0  # a row at the norm floor
    batch = batch_of(query, np.zeros(3))
    dists = proto_distance(batch, protos)
    assert dists.shape == (2, 3)
    # within a few ulps of what nc.cosine_rows gives on the same rows (the
    # mean of the cosines is taken as one dot with the mean unit row)
    for c, dist in enumerate(dists):
        want = None
        for l in (2, 4):
            with nc.no_grad():
                cos = nc.cosine_rows(Tensor(query[l]),
                                     Tensor(protos[l][c])).data
            term = 1.0 - cos.mean(axis=-1)
            want = term if want is None else want + term
        np.testing.assert_allclose(dist, want, rtol=0, atol=2e-15, err_msg=str(c))
    got = dists[1]
    # and close to the closed form
    hand = np.zeros(3)
    for l in (2, 4):
        pv = protos[l][1]
        for b in range(3):
            rows = query[l][b]
            cos = np.array([r @ pv / (max(np.linalg.norm(r), nc.NORM_FLOOR)
                                      * np.linalg.norm(pv)) for r in rows])
            hand[b] += 1.0 - cos.mean()
    np.testing.assert_allclose(got, hand, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("batch_taps, proto_taps", [
    ((2,), (2, 4)), ((2, 4, 5), (2, 4)), ((), (2, 4)), ((2, 4), (4,))])
def test_proto_distance_refuses_taps_that_differ_from_the_prototypes(batch_taps,
                                                                    proto_taps):
    # a batch tap without a prototype, a prototype tap without rows and an
    # empty batch all meet one check
    rng = np.random.default_rng(21)
    rows = aligned_rows(rng, 3, layers=batch_taps)
    protos = {t: rng.normal(size=(2, D)) for t in proto_taps}
    with pytest.raises(ContractError, match=re.escape(
            f"visual taps {list(batch_taps)} do not match the prototypes' "
            f"taps {list(proto_taps)}")):
        proto_distance(batch_of(rows, rng.uniform(size=3)), protos)


@pytest.mark.parametrize("shape", [(1, D), (3, D), (D,), (2, D - 1)])
def test_proto_distance_needs_one_prototype_row_per_class(shape):
    rng = np.random.default_rng(22)
    rows = aligned_rows(rng, 3, layers=(2,))
    with pytest.raises(ShapeError, match=re.escape(f"prototypes {shape}")):
        proto_distance(batch_of(rows, rng.uniform(size=3)),
                       {2: rng.normal(size=shape)})


def aligned_rows(rng, n, layers=(2, 4), p=4):
    """Stand-ins for n images' aligned patch rows at each tap."""
    return {l: rng.normal(size=(n, p, D)) for l in layers}


def test_proto_scores_relative_proximity():
    d_n = np.array([1.0, 0.0, 2.0])
    d_a = np.array([1.0, 2.0, 0.0])
    got = proto_scores(d_n, d_a, eps=0.0 + 1e-12)
    np.testing.assert_allclose(got, [0.5, 0.0, 1.0], atol=1e-9)
    with pytest.raises(DomainError):
        proto_scores(d_n, d_a, eps=0.0)
    with pytest.raises(DomainError):
        proto_scores(d_n, d_a, eps=-1.0)
    with pytest.raises(DomainError):  # used to return NaN scores
        proto_scores(d_n, d_a, eps=float("nan"))


def test_query_on_the_normal_prototype_scores_a_rounding_below_zero():
    # one patch per image, one image per class: the normal prototype is
    # image 0's row itself, and its cosine with that row rounds to 1 + 1 ulp
    rows = {2: np.array([[[-0.7, -0.2]], [[1.7, 0.7]]])}
    sup = support_of(rows)
    d_norm, d_abn = proto_distance(sup, build_prototypes(sup, [0, 1]))
    assert d_norm[0] == -2.0 ** -52
    got = proto_scores(d_norm, d_abn, 1e-8)
    assert -1e-15 < got[0] < 0.0  # documented, not clamped
    assert 0.0 < got[1] < 1.0


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


def test_score_batch_fields_consistent():
    rng = np.random.default_rng(12)
    protos = build_prototypes(support_of(aligned_rows(rng, 8)), [0] * 4 + [1] * 4)
    query, sem = aligned_rows(rng, 6), rng.uniform(size=6)
    labels = [0, 0, 0, 1, 1, 1]
    rep = score_batch(batch_of(query, sem), labels, protos, InferSpec(lam=0.3))
    for field in (rep.sem_raw, rep.proto_raw, rep.sem_norm, rep.proto_norm, rep.final):
        assert field.shape == (6,)
    np.testing.assert_array_equal(rep.sem_raw, sem)
    np.testing.assert_array_equal(rep.labels, labels)
    np.testing.assert_allclose(rep.sem_norm, minmax_normalize(rep.sem_raw))
    np.testing.assert_allclose(rep.proto_norm, minmax_normalize(rep.proto_raw))
    np.testing.assert_allclose(rep.final, 0.3 * rep.sem_norm + 0.7 * rep.proto_norm)
    assert rep.lam == 0.3


def test_score_batch_lambda_endpoints_match_single_branches():
    rng = np.random.default_rng(13)
    protos = build_prototypes(support_of(aligned_rows(rng, 4)), [0, 0, 1, 1])
    query, sem = aligned_rows(rng, 5), rng.uniform(size=5)
    labels = [0, 0, 1, 1, 1]
    sem_only = score_batch(batch_of(query, sem), labels, protos, InferSpec(lam=1.0))
    proto_only = score_batch(batch_of(query, sem), labels, protos, InferSpec(lam=0.0))
    np.testing.assert_array_equal(sem_only.final, sem_only.sem_norm)
    np.testing.assert_array_equal(proto_only.final, proto_only.proto_norm)


def bits(a):
    """An array's dtype, shape and bytes: equal only when bit for bit equal."""
    return a.dtype, a.shape, a.tobytes()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_score_batch_cores_equal_the_public_chain_bit_for_bit(data):
    # score_batch checks its distances and semantic scores once and runs
    # unchecked cores on what it computes from them
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    images = data.draw(st.integers(1, 5), label="images")
    # repeated ids tie both branches; a batch of one image makes both constant
    ids = np.array(data.draw(st.lists(st.integers(0, images - 1), min_size=1,
                                      max_size=40), label="ids"))
    sem = (np.full(images, data.draw(st.sampled_from([0.0, 0.25, 1.0]), label="sem"))
           if data.draw(st.booleans(), label="constant sem") else rng.uniform(size=images))
    infer = InferSpec(lam=data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]), label="lam"),
                      eps=data.draw(st.sampled_from([1e-8, 1e-3]), label="eps"))
    protos = build_prototypes(support_of(aligned_rows(rng, 4)), [0, 1, 1, 0])
    batch = aligned_of(aligned_rows(rng, images), sem, ids)
    labels = rng.integers(0, 2, size=ids.size)
    sem_raw = sem[ids]
    proto_raw = proto_scores(*proto_distance(batch, protos), infer.eps)
    sem_norm, proto_norm = minmax_normalize(sem_raw), minmax_normalize(proto_raw)
    want = {"sem_raw": sem_raw, "proto_raw": proto_raw, "sem_norm": sem_norm,
            "proto_norm": proto_norm, "labels": labels,
            "final": ensemble(sem_norm, proto_norm, infer.lam)}
    got = score_batch(batch, labels, protos, infer)
    for field, value in want.items():
        assert bits(getattr(got, field)) == bits(value), field
    assert bits(inference._minmax(sem_raw)) == bits(sem_norm)
    assert bits(inference._blend(sem_norm, proto_norm, infer.lam)) == \
        bits(want["final"])


def test_prototypes_read_as_their_class_means_with_directions_built_once():
    rng = np.random.default_rng(14)
    rows = aligned_rows(rng, 4)
    protos = build_prototypes(support_of(rows), [0, 1, 0, 1])
    assert list(protos) == [2, 4]
    for tap, dirs in protos.items():
        means = rows[tap].mean(axis=-2)
        for c in range(2):  # each class mean divided by its own 1-D norm
            assert bits(dirs[c]) == bits(direction(means[c::2].mean(axis=0))), c


# ---------------------------------------------------------------------------
# batch invariance of alignment and scores

WIDE = {"episode.query_per_class": 196}


@pytest.fixture(scope="module")
def wide_world():
    """One episode of 392 queries, as ``fsad eval`` scores, and its features."""
    cfg = RunConfig(WIDE)
    dataset = generate_dataset(cfg.dataset_spec())
    store = build_feature_store(cfg.backbone_spec(), dataset)
    ep = sample_episode(dataset, cfg["episode.k"], 0, cfg["episode.query_per_class"])
    return store, ep


def jittered_model(strategy):
    """A model of one strategy with every parameter jittered off its init
    (open gates, live adapters)."""
    model = model_from_config(RunConfig({**WIDE, "clsa.strategy": strategy}))
    rng = np.random.default_rng(41)
    for p in named_parameters(model).values():
        p.data = p.data + rng.normal(0.0, 0.05, size=p.shape)
    return model


def fresh(store):
    """The same features under a new store identity: a model's memo of
    ``store`` does not serve it, so every image is aligned anew."""
    return FeatureStore(feats=store.feats, labels=store.labels)


def one_pass(model, store, ids):
    """The summaries ({tap: (unit, mean)}) and semantic scores of ``ids``
    aligned in one forward pass; unbatched for an int ``ids``."""
    with nc.no_grad():
        out = forward(model, {l: Tensor(store.feats[l][ids])
                              for l in model.spec.selected_visual})
        sem = semantic_scores(out.visual, out.class_vectors["abnormal"],
                              model.tau())
    return {l: summaries(v.data) for l, v in out.visual.items()}, sem.data


def assert_memo_holds(memo, ids, want):
    """The memo's summaries of images ``ids`` equal ``want`` bit for bit."""
    assert list(memo.unit) == list(memo.mean) == list(want)
    for l, (unit, mean) in want.items():
        assert np.array_equal(memo.unit[l][ids], unit), l
        assert np.array_equal(memo.mean[l][ids], mean), l


@pytest.fixture(scope="module", params=STRATEGIES)
def wide_scorer(request, wide_world):
    """A jittered model of each strategy and its episode's query ids."""
    store, ep = wide_world
    return jittered_model(request.param), store, np.array(ep.query_ids)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_an_images_alignment_does_not_depend_on_its_block(wide_scorer, data):
    # an image aligned alone, at a random position of a full block, and as
    # the last row of one block or the first row of the next gives the same
    # summaries at every tap and the same semantic score, bit for bit, and
    # they are the summaries of its unbatched pass
    model, store, _ = wide_scorer
    n = store.labels.size
    image = data.draw(st.integers(0, n - 1), label="image")
    others = [i for i in data.draw(st.permutations(range(n)), label="others")
              if i != image]
    in_block = others[:SCORE_BLOCK - 1]
    in_block.insert(data.draw(st.integers(0, SCORE_BLOCK - 1), label="pos"), image)
    at_edge = others[:SCORE_BLOCK + data.draw(st.integers(0, SCORE_BLOCK - 1),
                                              label="spill")]
    at_edge.insert(data.draw(st.sampled_from([SCORE_BLOCK - 1, SCORE_BLOCK]),
                             label="side"), image)
    want, want_sem = one_pass(model, store, image)
    assert list(want) == list(model.spec.selected_visual)
    for ids in ([image], in_block, at_edge):
        memo = align(model, fresh(store), ids)
        assert_memo_holds(memo, image, want)
        assert memo.sem[image] == want_sem


# sizes around the first block edge and around 100 images (a later edge)
@pytest.mark.parametrize("n", sorted({1, SCORE_BLOCK - 1, SCORE_BLOCK,
                                      SCORE_BLOCK + 1, 99, 100, 101, 392}))
def test_blocked_scores_equal_one_pass_bit_for_bit(wide_scorer, n):
    model, store, ids = wide_scorer
    assert ids.size == 392
    want, sem = one_pass(model, store, ids[:n])
    memo = align(model, fresh(store), ids[:n])
    assert_memo_holds(memo, ids[:n], want)
    assert np.array_equal(memo.sem[ids[:n]], sem)


@pytest.fixture(scope="module")
def wide_episode(wide_world):
    """The seq scorer's prototypes, the 392 queries' aligned batch and
    labels, and the scores of all of them in one call."""
    store, ep = wide_world
    memo = align(jittered_model("seq"), store,
                 np.concatenate((ep.support_ids, ep.query_ids)))
    protos = build_prototypes(memo.take(ep.support_ids),
                              store.labels[ep.support_ids])
    query = memo.take(ep.query_ids)
    labels = store.labels[ep.query_ids]
    whole = score_batch(query, labels, protos)
    return protos, query, labels, whole


def part(batch, ids):
    """Images ``ids`` of an aligned batch."""
    return Aligned(unit=batch.unit, mean=batch.mean, sem=batch.sem,
                   ids=batch.ids[ids])


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_raw_scores_bit_identical_across_chunks_and_order(wide_episode, data):
    protos, query, labels, whole = wide_episode
    n = labels.size
    order = np.array(data.draw(st.permutations(range(n)), label="order"))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=12),
                            label="cuts"))
    sem_raw = np.empty(n)
    proto = np.empty(n)
    for ids in np.split(order, cuts):
        rep = score_batch(part(query, ids), labels[ids], protos)
        sem_raw[ids] = rep.sem_raw
        proto[ids] = rep.proto_raw
    assert np.array_equal(sem_raw, whole.sem_raw)
    assert np.array_equal(proto, whole.proto_raw)


def test_raw_scores_bit_identical_one_query_at_a_time(wide_episode):
    protos, query, labels, whole = wide_episode
    for i in range(labels.size):
        rep = score_batch(part(query, slice(i, i + 1)), labels[i:i + 1], protos)
        assert rep.sem_raw[0] == whole.sem_raw[i]
        assert rep.proto_raw[0] == whole.proto_raw[i]


def test_unbatched_query_scores_as_one_pass(wide_world):
    # an unbatched [P, d] image through forward gives its memo summaries
    # and score
    store, _ = wide_world
    model = jittered_model("seq")
    memo = align(model, fresh(store), [7])
    want, sem = one_pass(model, store, 7)
    assert sem.shape == ()
    for unit, mean in want.values():
        assert unit.shape == mean.shape == (32,)
    assert_memo_holds(memo, 7, want)
    assert memo.sem[7] == sem


def test_finite_rows_whose_norm_overflows_are_a_numeric_error(wide_world,
                                                               monkeypatch):
    # entries of 1e200 are finite, but each row's norm overflows: the row
    # would add 0 to its image's unit-row mean and a finite value to its
    # patch mean, so the check must read the norms, not the summaries
    store, ep = wide_world
    real = fmodel.forward

    def huge(model, taps):
        out = real(model, taps)
        out.visual[6] = Tensor(np.full(out.visual[6].shape, 1e200))
        return out

    monkeypatch.setattr(fmodel, "forward", huge)
    with pytest.raises(NumericError, match="alignment diverged: the aligned "
                                           "rows at visual tap 6 overflow"):
        align(jittered_model("seq"), fresh(store), ep.query_ids[:3])


def counted_alignment(monkeypatch):
    """Counts of text-tower runs and CLSA calls, and the images CLSA saw."""
    calls = {"text": 0, "clsa": 0, "images": 0}

    def text(*args):
        calls["text"] += 1
        return forward_text(*args)

    def clsa(pairs, visual, *rest):
        calls["clsa"] += 1
        calls["images"] += next(iter(visual.values())).shape[0]
        return clsa_forward(pairs, visual, *rest)

    forward_text, clsa_forward = fmodel.forward_text, fmodel.clsa_forward
    monkeypatch.setattr(fmodel, "forward_text", text)
    monkeypatch.setattr(fmodel, "clsa_forward", clsa)
    return calls


def test_text_tower_runs_once_for_every_block(wide_world, monkeypatch):
    store, ep = wide_world
    calls = counted_alignment(monkeypatch)
    align(jittered_model("seq"), store, ep.query_ids)
    blocks = -(-len(ep.query_ids) // SCORE_BLOCK)
    assert calls == {"text": blocks, "clsa": blocks, "images": len(ep.query_ids)}


def test_scoring_392_queries_keeps_peak_memory_small(wide_world):
    store, ep = wide_world
    model = jittered_model("seq")
    support = align(model, store, ep.support_ids).take(ep.support_ids)
    protos = build_prototypes(support, store.labels[ep.support_ids])
    tracemalloc.start()
    try:
        memo = align(model, fresh(store), ep.query_ids)
        score_batch(memo.take(ep.query_ids), store.labels[ep.query_ids], protos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the memo takes 0.8 MiB and aligning one block of SCORE_BLOCK (25)
    # images about 3 more: a 3.8 MiB peak, against 6.5 at blocks of 50,
    # 11.9 at blocks of 100 and about 36 for one pass over all 392 queries
    assert peak < 5 * 2**20


def test_a_memo_full_wide_episode_copies_no_rows(wide_world):
    # a steady-state 392-query episode reads the memo's arrays where they
    # are: its peak stays under half of one tap's [392, P, d] query rows,
    # which the scoring used to gather for each of the four taps
    store, ep = wide_world
    cfg = RunConfig(WIDE)
    dataset = generate_dataset(cfg.dataset_spec())
    model = jittered_model("seq")
    run_episode(cfg, store, dataset, 0, train=False, model=model)  # fills the memo
    memo = model._memo
    batch = memo.take(ep.query_ids)
    for t in memo.unit:
        assert batch.unit[t] is memo.unit[t] and batch.mean[t] is memo.mean[t]
    tracemalloc.start()
    try:
        run_episode(cfg, store, dataset, 0, train=False, model=model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model._memo is memo
    gathered = len(ep.query_ids) * store.feats[2][0].nbytes
    assert gathered == 392 * 16 * 32 * 8  # 1.6 MB
    assert peak < gathered / 2


def test_the_memo_holds_two_vectors_per_image_and_tap(wide_world):
    # at the default corpus (400 images, 4 taps, 16 patches, width 32) the
    # memo used to hold [N, P, d] rows and [N, P] norms per tap, 6.76 MB;
    # scoring reads only an [N, d] array of unit-row means and one of patch
    # means per tap, plus the [N] semantic scores and filled mask
    store, ep = wide_world
    memo = align(jittered_model("seq"), fresh(store), ep.query_ids)
    arrays = [a for v in vars(memo).values()
              for a in (v.values() if isinstance(v, dict) else [v])
              if isinstance(a, np.ndarray)]
    # 2 arrays x 4 taps x 400 images x 32 x 8 bytes, then sem and filled
    assert sum(a.nbytes for a in arrays) == 819_200 + 400 * (8 + 1)


def small_scoring_setup(rng, n):
    protos = build_prototypes(support_of(aligned_rows(rng, 4)), [0, 0, 1, 1])
    return protos, aligned_rows(rng, n), rng.uniform(size=n)


def test_score_batch_rejects_taps_with_different_query_counts():
    rng = np.random.default_rng(14)
    protos, query, sem = small_scoring_setup(rng, 3)
    query[4] = query[4][:2]
    with pytest.raises(ShapeError, match=r"2: \(3,\), 4: \(2,\)"):
        score_batch(batch_of(query, sem), [0, 1, 1], protos)
    query[2] = query[2][:2]
    with pytest.raises(ShapeError, match="3 semantic scores"):
        score_batch(batch_of(query, sem), [0, 1, 1], protos)


def test_score_batch_names_a_missing_visual_tap():
    # used to raise a bare KeyError: 4
    rng = np.random.default_rng(18)
    protos, query, sem = small_scoring_setup(rng, 3)
    del query[4]
    with pytest.raises(ContractError, match=r"visual taps \[2\] do not match "
                                            r"the prototypes' taps \[2, 4\]"):
        score_batch(batch_of(query, sem), [0, 1, 1], protos)


def test_score_batch_rejects_a_label_count_off_the_query_count():
    rng = np.random.default_rng(15)
    protos, query, sem = small_scoring_setup(rng, 3)
    with pytest.raises(ContractError, match=r"labels must have shape \(3,\), got \(2,\)"):
        score_batch(batch_of(query, sem), [0, 1], protos)


def test_score_batch_rejects_an_empty_batch():
    rng = np.random.default_rng(16)
    protos, query, sem = small_scoring_setup(rng, 0)
    with pytest.raises(ContractError, match="cannot normalize an empty batch"):
        score_batch(batch_of(query, sem), [], protos)



@pytest.mark.parametrize("ids", [[0.0, 1.0], [[0, 1]], [True, False]])
def test_aligned_takes_a_1d_array_of_integer_ids(ids):
    rng = np.random.default_rng(17)
    rows = aligned_rows(rng, 3)
    with pytest.raises(ContractError, match=r"image ids must be an? (1-D )?array of integers"):
        aligned_of(rows, rng.uniform(size=3), ids)


@pytest.mark.parametrize("widths", [{2: D}, {2: D, 4: D - 1}, {2: D, 4: D, 5: D}],
                         ids=["missing tap", "other width", "extra tap"])
def test_aligned_takes_patch_means_at_the_unit_rows_taps_and_shapes(widths):
    # build_prototypes reads the means and proto_distance the unit rows, so
    # the two must cover the same taps at the same shapes
    unit = {2: np.zeros((3, D)), 4: np.zeros((3, D))}
    mean = {t: np.zeros((3, d)) for t, d in widths.items()}
    with pytest.raises(ShapeError, match="patch means per visual tap do not match"):
        Aligned(unit=unit, mean=mean, sem=np.zeros(3), ids=[0, 1, 2])


# ---------------------------------------------------------------------------
# drawn batches against a per-image oracle

FAULTS = {  # a drawn fault -> the categorized error it must raise
    "empty class": CapacityError,          # build_prototypes
    "support index": ContractError,        # Aligned, of the support
    "no patches": ShapeError,              # summaries
    "image id": ContractError,             # Aligned
    "tap without prototype": ContractError,  # proto_distance
    "zero width": ShapeError,              # summaries
    "prototype without rows": ContractError,  # proto_distance
}


def image_alone(visual, protos, image):
    """One image's distance to each class prototype, its [P, d] rows at
    each tap summarized and scored alone, as a batch of one."""
    s = {layer: summaries(rows[image]) for layer, rows in visual.items()}
    one = Aligned(unit={l: u[None] for l, (u, _) in s.items()},
                  mean={l: m[None] for l, (_, m) in s.items()}, sem=np.zeros(1), ids=[0])
    return proto_distance(one, protos)[:, 0]


def image_oracle(visual, means, image):
    """One image's distance to each class mean ({tap: [2, d]}):
    ``nc.cosine_rows`` on its [P, d] rows alone at each tap, their mean,
    summed in tap order."""
    out = []
    for c in (0, 1):
        total = None
        for layer, rows in visual.items():
            with nc.no_grad():
                cos = nc.cosine_rows(Tensor(rows[image]),
                                     Tensor(means[layer][c])).data
            term = 1.0 - cos.mean()
            total = term if total is None else total + term
        out.append(total)
    return out


@pytest.mark.parametrize("fault", [None, *FAULTS])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_drawn_batches_score_as_each_image_alone_or_raise(fault, data):
    # memo-sized rows indexed by drawn ids (permuted or repeated, past the
    # SCORE_BLOCK edges), drawn tap sets and labelled support ids: each draw
    # either raises its fault's categorized error or gives prototypes and
    # distances equal to per-image loops bit for bit, and distances within
    # 1e-12 of the mean nc.cosine_rows cosines
    draw = data.draw
    n = draw(st.integers(1, 250), label="memo images")
    size = draw(st.one_of(st.sampled_from([1, SCORE_BLOCK - 1, SCORE_BLOCK,
                                           SCORE_BLOCK + 1, 2 * SCORE_BLOCK + 1,
                                           250]),
                          st.integers(1, 250)), label="batch size")
    p = 0 if fault == "no patches" else draw(st.integers(1, 5), label="patches")
    d = 0 if fault == "zero width" else draw(st.integers(1, 6), label="width")
    taps = draw(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=4,
                         unique=True), label="taps")  # the batch's dict order
    proto_taps = draw(st.permutations(taps), label="prototype taps")
    if fault == "tap without prototype":
        proto_taps = proto_taps[1:] or [5]
    if fault == "prototype without rows":
        proto_taps = proto_taps + [5]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    rows = {t: rng.normal(size=(n, p, d)) for t in taps + proto_taps}
    if p * d:
        rows[taps[0]][rng.integers(n), rng.integers(p)] = 0.0  # at the norm floor
    if draw(st.booleans(), label="repeats"):
        ids = rng.integers(0, n, size=size)
    else:
        ids = rng.permutation(np.arange(size) % n)
    if fault == "image id":
        ids[rng.integers(size)] = draw(st.sampled_from([-1, n]), label="bad id")
    if draw(st.booleans(), label="ids as a list"):
        ids = ids.tolist()
    m = draw(st.integers(2, 12), label="support images")
    sup_ids = rng.integers(0, n, size=m)
    if fault == "support index":
        sup_ids[rng.integers(m)] = draw(st.sampled_from([-1, n]), label="bad")
    normal = draw(st.integers(1, m - 1), label="normal support images")
    if fault == "empty class":
        normal = draw(st.sampled_from([0, m]), label="one class")
    sup_labels = rng.permutation([0] * normal + [1] * (m - normal))
    sem = rng.uniform(size=n)
    labels = rng.integers(0, 2, size=size)
    visual = {t: rows[t] for t in taps}

    def aligned(at, ids):
        return aligned_of({t: rows[t] for t in at}, sem, ids)

    def run():
        protos = build_prototypes(aligned(proto_taps, sup_ids), sup_labels)
        batch = aligned(taps, ids)
        return (protos, batch, proto_distance(batch, protos),
                score_batch(batch, labels, protos))

    if fault is not None:
        with pytest.raises(FAULTS[fault]):
            run()
        return
    protos, batch, dists, rep = run()
    means = {t: np.array([np.mean([rows[t][i].mean(axis=0)
                                   for i, y in zip(sup_ids, sup_labels) if y == c],
                                  axis=0) for c in (0, 1)])
             for t in proto_taps}
    for t in proto_taps:
        for c in (0, 1):
            assert bits(protos[t][c]) == bits(direction(means[t][c])), (c, t)
    want = np.array([image_alone(visual, protos, i) for i in batch.ids]).T
    assert np.array_equal(dists, want)
    cosines = np.array([image_oracle(visual, means, i) for i in batch.ids]).T
    np.testing.assert_allclose(dists, cosines, rtol=0, atol=1e-12)
    assert np.array_equal(rep.sem_raw, sem[batch.ids])
    assert np.array_equal(rep.proto_raw, proto_scores(*want, 1e-8))


# ---------------------------------------------------------------------------
# drawn labels and branch scores: each works or raises categorized, unwarned


@pytest.mark.parametrize("labels", [
    ["a", "b", "c", "d"], None, [0.7, 0.2, 1.9, 1.2], [2, 3, 2, 3],
    [[0, 1], [0, 1]]], ids=["str", "None", "float", "outside", "2-D"])
def test_score_batch_takes_labels_of_0_or_1(labels):
    # str and None leaked a bare ValueError and TypeError; the floats were
    # truncated to [0, 0, 1, 1], and the last two were stored as given
    rng = np.random.default_rng(23)
    protos, query, sem = small_scoring_setup(rng, 4)
    with pytest.raises(ContractError, match="labels"):
        score_batch(batch_of(query, sem), labels, protos)


def drawn_labels(draw, n):
    """Drawn labels for n images and the error each call must raise
    (None: it works): ``(labels, build_prototypes error, score_batch error)``;
    ``train_episode`` must raise the ``score_batch`` error."""
    both = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    kind = draw(st.sampled_from(["valid", "one class", "float", "str", "2-D",
                                 "outside", "length", "ragged"]), label="kind")
    if kind == "valid":
        form = draw(st.sampled_from([list, np.array, lambda y: np.array(y, float),
                                     lambda y: np.array(y, bool)]), label="form")
        return form(draw(st.permutations(both))), None, None
    if kind == "one class":
        return [draw(st.integers(0, 1))] * n, CapacityError, None
    if kind == "float":
        values = st.floats() | st.sampled_from([0.5, 1.5, -0.0, np.inf, np.nan])
        labels = draw(st.lists(values, min_size=n, max_size=n))
        if all(y in (0, 1) for y in labels):
            return labels, None if 0 in labels and 1 in labels else CapacityError, None
        return labels, ContractError, ContractError
    if kind == "str":
        return draw(st.lists(st.text(max_size=2), min_size=n, max_size=n)), \
            ContractError, ContractError
    if kind == "2-D":
        return np.reshape(both * 2, (2, n)), ContractError, ContractError
    if kind == "outside":
        labels = both[:]
        labels[draw(st.integers(0, n - 1))] = draw(
            st.integers(-2**70, 2**70).filter(lambda y: y not in (0, 1)))
        return labels, ContractError, ContractError
    if kind == "length":
        labels = draw(st.lists(st.integers(0, 1), max_size=2 * n).filter(
            lambda y: len(y) != n))
        return labels, ContractError, ContractError
    return [both[:1], both], ContractError, ContractError  # ragged


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_drawn_labels_work_or_raise_categorized(data):
    n = data.draw(st.integers(2, 6), label="images")
    labels, proto_error, score_error = drawn_labels(data.draw, n)
    rng = np.random.default_rng(24)
    rows, sem = aligned_rows(rng, n), rng.uniform(size=n)
    protos = build_prototypes(support_of(aligned_rows(rng, 2)), [0, 1])
    model = init_model(Recipe(BackboneSpec(d=D, vision_layers=4, text_layers=2,
                                           selected_visual=(2, 4), selected_text=(1, 2),
                                           patch_grid=(2, 2), heads=4, seed=5), seed=7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, error in ((lambda: build_prototypes(support_of(rows), labels),
                             proto_error),
                            (lambda: score_batch(batch_of(rows, sem), labels, protos),
                             score_error),
                            (lambda: train_episode(model, rows, labels,
                                                   TrainConfig(epochs=1)),
                             score_error)):
            if error is not None:
                with pytest.raises(error):
                    call()
                continue
            got = call()
            if isinstance(got, inference.ScoreReport):
                assert got.labels.dtype == np.int64
                assert np.array_equal(got.labels, np.asarray(labels))


@pytest.mark.parametrize("call, args, error", [
    (ensemble, (["a"], [0.1], 0.5), NumericError),
    (ensemble, ([1j], [0.1], 0.5), NumericError),
    (ensemble, ([np.nan], [0.1], 0.5), NumericError),
    (proto_scores, (["a"], [0.0], 1e-8), NumericError),
    (proto_scores, ([-1e-8], [0.0], 1e-8), DomainError),
    (proto_scores, ([np.inf], [1.0], 1e-8), NumericError),
    (proto_scores, ([1.0, 2.0], [1.0, 2.0, 3.0], 1e-8), ContractError),
    (proto_scores, ([1e308], [-1e308], 1e-8), NumericError),
    (minmax_normalize, ([1e308, -1e308],), NumericError),
], ids=["ensemble-str", "ensemble-complex", "ensemble-nan", "proto-str",
        "proto-negative", "proto-inf", "proto-lengths", "proto-overflow",
        "minmax-overflow"])
def test_branch_scores_refuse_unreadable_input(call, args, error):
    # str and complex input leaked a bare ValueError or TypeError, as did
    # the broadcast of unequal lengths; -1e-8 (a zero denominator), inf and
    # the two overflows warned; a NaN blended to [nan]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call(*args)


def drawn_values(draw, n):
    """n drawn scores or distances, mostly real, some not numbers at all."""
    reals = st.floats() | st.sampled_from([0.0, 1.0, 1e308, -1e308, 5e-324])
    odd = st.text(max_size=2) | st.complex_numbers() | st.none() | \
        st.integers(-2**1100, 2**1100) | st.booleans()
    kind = draw(st.sampled_from(["reals", "reals", "odd", "ragged"]), label="values")
    if kind == "ragged":
        return [[0.5], [0.5, 0.5]]
    return draw(st.lists(reals if kind == "reals" else reals | odd,
                         min_size=n, max_size=n))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_drawn_branch_scores_work_or_raise_categorized(data):
    draw = data.draw
    n = draw(st.integers(0, 4), label="length")
    a = drawn_values(draw, n)
    b = drawn_values(draw, draw(st.sampled_from([n, n, n + 1]), label="other length"))
    weight = draw(st.floats() | st.floats(0, 1), label="lam or eps")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, args in ((ensemble, (a, b, weight)),
                           (proto_scores, (a, b, weight)),
                           (minmax_normalize, (a,))):
            try:
                got = call(*args)
            except FsadError:
                continue
            assert got.dtype == np.float64 and np.isfinite(got).all()
            if call is minmax_normalize:
                assert ((0 <= got) & (got <= 1)).all()
