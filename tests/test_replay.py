"""Compiled training steps: epochs replayed from a recorded schedule equal an
eager reference loop bit for bit, divergence included.

The reference below is the training loop written out with the public API
(GradTape, training_scores, bce_loss, AdamW, cosine_lr): it records a fresh
tape at every step of every epoch and differentiates it with the test-local
reverse walk of ``reference_backward``, so replay is checked against a
second walk, not against the one it runs.
"""

import numpy as np
import pytest

from fsad import numcore as nc
from fsad import training
from fsad.backbone import BackboneSpec
from fsad.clsa import STRATEGIES, ClsaSpec
from fsad.errors import ContractError, NumericError
from fsad.model import (FAST_GROUP, init_model, named_parameters,
                        parameter_groups, stack_models, stack_size,
                        state_checksum)
from fsad.numcore import GradTape, Tensor
from fsad.training import (AdamW, TraceRow, TrainConfig, bce_loss, cosine_lr,
                           train_episode, training_scores)
from reference_backward import reference_backward

D = 16
TAPS = (2, 4)
# the benchmark rates: gates and zero up-projections open after step 0
TRAIN = TrainConfig(epochs=4, lr_fast=0.03, lr_slow=0.003)


def small_spec():
    return BackboneSpec(d=D, vision_layers=4, text_layers=2, selected_visual=TAPS,
                        selected_text=(1, 2), patch_grid=(2, 2), heads=4, seed=5)


def divergence_message(model, losses, epoch, stacked):
    episode = int(np.flatnonzero(~np.isfinite(np.reshape(losses, -1)))[0])
    culprit = next((name for name, p in named_parameters(model).items()
                    if not np.isfinite(p.data[episode] if stacked else p.data).all()),
                   None)
    return (f"training diverged: non-finite loss at epoch {epoch}"
            + (f" in episode {episode} of the stack" if stacked else "")
            + (f"; first non-finite parameter {culprit}" if culprit
               else "; all parameters still finite"))


def reference_train(model, feats, labels, config):
    """Every step eager: record, check, differentiate, update."""
    stacked = stack_size(model) is not None
    y = np.asarray(labels, dtype=np.int64)
    if not stacked:
        y = y.reshape(-1)
    n = y.shape[-1]
    rates = {name: config.lr_fast if group == FAST_GROUP else config.lr_slow
             for name, group in parameter_groups(model).items()}
    opt = AdamW(named_parameters(model), config)
    bounds = list(range(0, n, min(config.batch_size, n))) + [n]
    traces = [[] for _ in range(y.size // n)]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            decay = cosine_lr(1.0, epoch, config.epochs)
            lrs = {name: base * decay for name, base in rates.items()}
            total = np.zeros(y.shape[:-1])
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                batch = {l: Tensor(f[..., lo:hi, :, :]) for l, f in feats.items()}
                with GradTape() as tape:
                    loss = bce_loss(training_scores(model, batch), y[..., lo:hi])
                    objective = nc.sum_all(loss) if stacked else loss
                if not np.isfinite(loss.data).all():
                    raise NumericError(divergence_message(model, loss.data, epoch,
                                                          stacked))
                opt.zero_grad()
                reference_backward(objective, tape)
                opt.step(lrs)
                total += loss.data * (hi - lo)
            for trace, value in zip(traces, np.reshape(total / n, -1)):
                trace.append(TraceRow(epoch=epoch, lr_fast=config.lr_fast * decay,
                                      lr_slow=config.lr_slow * decay,
                                      loss=float(value)))
    opt.zero_grad()
    return traces if stacked else traces[0]


def support(seed, rows, episodes=None):
    """Features per tap, [rows, P, d] or [E, rows, P, d], and 0/1 labels."""
    rng = np.random.default_rng(seed)
    lead = (rows,) if episodes is None else (episodes, rows)
    feats = {layer: rng.normal(size=lead + (small_spec().patches, D))
             for layer in TAPS}
    labels = np.arange(rows) % 2
    if episodes is None:
        return feats, rng.permutation(labels)
    return feats, np.stack([rng.permutation(labels) for _ in range(episodes)])


def assert_replay_matches_reference(make, feats, labels, config=TRAIN):
    ref = make()
    want = reference_train(ref, feats, labels, config)
    model = make()
    got = train_episode(model, feats, labels, config)
    assert got == want
    assert state_checksum(model) == state_checksum(ref)


def one(strategy="seq", seed=7, **clsa):
    return lambda: init_model(small_spec(), seed,
                              clsa=ClsaSpec(strategy=strategy, **clsa))


@pytest.mark.parametrize("k", [4, 16])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_replay_matches_reference(strategy, k):
    # k=16: 32 rows at batch 16, two schedules per epoch
    assert_replay_matches_reference(one(strategy), *support(k, 2 * k))


@pytest.mark.parametrize("k", [4, 16])
def test_replayed_stack_of_three_matches_reference(k):
    def make():
        return stack_models([one("seq", seed)() for seed in (3, 4, 5)])
    assert_replay_matches_reference(make, *support(20 + k, 2 * k, episodes=3))


@pytest.mark.parametrize("episodes", [None, 3])
def test_ragged_last_batch_replays_its_own_schedule(episodes):
    # 8 rows at batch 3: positions of 3, 3 and 2 rows
    def make():
        models = [one("seq", seed)() for seed in (3, 4, 5)]
        return models[0] if episodes is None else stack_models(models)
    config = TrainConfig(epochs=4, lr_fast=0.03, lr_slow=0.003, batch_size=3)
    assert_replay_matches_reference(make, *support(30, 8, episodes), config)


def test_replay_with_fixed_gates_matches_reference():
    make = one("t2v", gate_init=0.25, gates_learnable=False)
    assert_replay_matches_reference(make, *support(40, 8))


def test_one_epoch_runs_only_the_recorded_steps():
    config = TrainConfig(epochs=1, lr_fast=0.03, lr_slow=0.003)
    assert_replay_matches_reference(one("seq"), *support(50, 32), config)


def test_later_epochs_replay_the_recorded_steps(monkeypatch):
    calls = []
    original = training.backward
    monkeypatch.setattr(training, "backward",
                        lambda *args: calls.append(1) or original(*args))
    config = TrainConfig(epochs=5, lr_fast=0.03, lr_slow=0.003, batch_size=3)
    train_episode(one("seq")(), *support(60, 8), config)
    assert len(calls) == 3  # one eager step per position, in epoch 0


def test_each_position_is_compiled_once(monkeypatch):
    # numcore.backward hands its compiled schedule on to the replays
    compiled = []
    original = nc.Schedule.__init__
    monkeypatch.setattr(nc.Schedule, "__init__", lambda self, *args:
                        compiled.append(1) or original(self, *args))
    config = TrainConfig(epochs=5, lr_fast=0.03, lr_slow=0.003, batch_size=3)
    train_episode(one("seq")(), *support(60, 8), config)
    assert len(compiled) == 3  # 8 rows at batch 3: three positions


@pytest.mark.parametrize("episodes", [None, 2])
def test_divergence_in_a_replayed_epoch_raises_the_reference_message(episodes):
    config = TrainConfig(epochs=30, lr_fast=1e3, lr_slow=1e3)

    def make():
        models = [one("seq", seed)() for seed in (7, 8)]
        return models[0] if episodes is None else stack_models(models)

    feats, labels = support(70, 8, episodes)
    with pytest.raises(NumericError) as want:
        reference_train(make(), feats, labels, config)
    assert "epoch 0" not in str(want.value)  # it diverges in a replayed epoch
    with pytest.raises(NumericError) as got:
        train_episode(make(), feats, labels, config)
    assert str(got.value) == str(want.value)


# --- numcore.Schedule ------------------------------------------------------------

def test_schedule_replays_a_tape_on_updated_parameters():
    rng = np.random.default_rng(80)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 5, 3)))

    def step():
        with GradTape() as tape:
            h = nc.sigmoid(nc.matmul(x, w))
            out = nc.sum_last(nc.mean_axis(nc.mul(h, h), 1))
            loss = nc.sum_all(out)
        return tape, loss, out

    # a vector loss: the replay returns its value and differentiates the sum
    # of its entries, which the reference walk takes from the scalar
    tape, loss, out = step()
    schedule = nc.Schedule(tape, out)
    w.data = w.data * 0.5
    w.grad = None
    got = schedule.forward()
    schedule.backward()
    tape, loss, out = step()
    replay_grad, w.grad = w.grad, None
    reference_backward(loss, tape)
    assert np.array_equal(got, out.data)
    assert np.array_equal(replay_grad, w.grad)


def test_schedule_rejects_a_backward_without_its_forward():
    w = Tensor(np.ones(2), requires_grad=True)
    with GradTape() as tape:
        loss = nc.sum_all(nc.scale(w, 2.0))
    schedule = nc.Schedule(tape, loss)
    with pytest.raises(ContractError):
        schedule.backward()
    schedule.forward()
    schedule.backward()
    with pytest.raises(ContractError):
        schedule.backward()
