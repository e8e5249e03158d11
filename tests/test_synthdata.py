"""Synthetic corpus: determinism, anomaly statistics, episode structure."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from fsad import synthdata
from fsad.errors import CapacityError, ConfigError, ContractError
from fsad.synthdata import (DatasetSpec, Sample, generate_dataset,
                            manifest_text, render, sample_episode)


def small_spec(**kw):
    base = dict(seed=3, n_normal=20, n_abnormal=20)
    base.update(kw)
    return DatasetSpec(**base)


def test_spec_validation():
    with pytest.raises(ConfigError):
        DatasetSpec(n_normal=0)
    with pytest.raises(ConfigError):
        DatasetSpec(blob_radius_max=16.0)
    with pytest.raises(ConfigError):
        DatasetSpec(freq_min=5.0, freq_max=4.0)


@pytest.mark.parametrize("fields, key", [
    ({"freq_max": 1e308}, "freq_max"),
    ({"anomaly_freq_factor": 1e308}, "anomaly_freq_factor"),
    ({"anomaly_freq_factor": -1e308}, "anomaly_freq_factor"),
    # neither overflows alone; the anomaly's frequency does
    ({"freq_max": 1e200, "anomaly_freq_factor": 1e200}, "anomaly_freq_factor")])
def test_spec_rejects_frequencies_whose_phase_overflows(fields, key):
    with pytest.raises(ConfigError, match=f"data.{key}="):
        DatasetSpec(**fields)


def test_huge_finite_frequencies_render_finite_images():
    # just inside the check: no overflow warning (an error under the suite's
    # filter) and finite pixels
    spec = DatasetSpec(freq_max=1e300, anomaly_freq_factor=1.0, n_normal=1,
                       n_abnormal=1)
    for sample in generate_dataset(spec):
        assert np.isfinite(sample.image).all()


def test_determinism():
    a = generate_dataset(small_spec())
    b = generate_dataset(small_spec())
    for x, y in zip(a, b):
        assert np.array_equal(x.image, y.image) and x.label == y.label


def test_default_corpus_pixels_are_pinned():
    # sha256 of the default 400 images' rendered pixels in dataset order; a
    # renderer change that moves one bit of one pixel changes it
    h = hashlib.sha256()
    for sample in generate_dataset(DatasetSpec()):
        h.update(sample.image.tobytes())
    assert h.hexdigest() == ("372e91d07926bcf10e642646aab942134fa9de4ef019bf6e"
                             "07ac0f565f4234f6")


def test_a_generated_sample_is_a_recipe_without_pixels():
    # the default corpus rendered held 9.4 MiB of pixels; its samples hold
    # the spec and the stream key
    tracemalloc.start()
    try:
        data = generate_dataset(DatasetSpec())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"generate_dataset peaked at {peak / 2**20:.2f} MB"
    for sample in data:
        assert not any(isinstance(value, np.ndarray) for value in vars(sample).values())
    assert data[200] == Sample(DatasetSpec(), 1, 0)


def test_generation_draws_nothing(monkeypatch):
    # the disk is drawn when read, not stored: generation seeds no stream
    calls, stream = [], synthdata._stream
    monkeypatch.setattr(synthdata, "_stream",
                        lambda *key: calls.append(key) or stream(*key))
    data = generate_dataset(DatasetSpec())
    assert calls == []
    assert data[200].disk == stream(DatasetSpec(), 1, 0)[3]


def test_image_reads_render_equal_pixels_each_time():
    spec = small_spec()
    for with_anomaly in (True, False):
        sample = Sample(spec, 1, 4, with_anomaly=with_anomaly)
        first, again = sample.image, sample.image
        assert first is not again and np.array_equal(first, again)
        assert np.array_equal(first, Sample(spec, 1, 4, with_anomaly).image)
    # the disk's draws come before the noise, so a clean sample keeps them
    assert Sample(spec, 1, 4, False).disk == Sample(spec, 1, 4).disk


@pytest.mark.parametrize("label, index, match", [
    (0, -1, "Sample.index must be >= 0, got -1"),
    (0, 0.5, "Sample.index must be an integer, got 0.5"),
    (1, None, "Sample.index must be an integer, got None"),
    (2, 0, "Sample.label must be 0 or 1, got 2"),
    (-1, 0, "Sample.label must be 0 or 1, got -1"),
    (0.5, 1, "Sample.label must be an integer, got 0.5"),
    ("1", 0, "Sample.label must be an integer, got '1'")])
def test_a_sample_that_is_not_a_stream_key_is_a_contract_error(label, index, match):
    with pytest.raises(ContractError, match=match):
        Sample(DatasetSpec(), label, index)


def test_numpy_integer_keys_are_stream_keys():
    spec = small_spec()
    sample = Sample(spec, np.int64(1), np.uint8(3))
    assert sample == Sample(spec, 1, 3)
    assert np.array_equal(sample.image, Sample(spec, 1, 3).image)


@pytest.mark.parametrize("height, width", [(20, 24), (16, 16)])
@pytest.mark.parametrize("count", [1, 3, 5, 14])
def test_a_block_renders_each_sample_as_if_alone(height, width, count):
    # odd row lengths, mixed labels and a suppressed anomaly in one call
    spec = small_spec(height=height, width=width, blob_radius_min=2.0,
                      blob_radius_max=4.0)
    samples = [Sample(spec, i % 2, 3 * i, with_anomaly=i % 3 != 2)
               for i in range(count)]
    block = render(samples)
    assert block.shape == (count, height, width, 3)
    for pixels, sample in zip(block, samples):
        assert pixels.tobytes() == sample.image.tobytes()


def test_a_block_renders_one_spec():
    a, b = Sample(small_spec(), 0, 0), Sample(small_spec(seed=4), 0, 0)
    with pytest.raises(ContractError, match="sample 1 has another dataset spec"):
        render([a, b])
    with pytest.raises(ContractError, match="at least one sample"):
        render([])


def test_images_in_unit_range_and_shape():
    data = generate_dataset(small_spec())
    for s in data:
        assert s.image.shape == (32, 32, 3)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


def test_degenerate_control_erases_anomaly():
    spec = small_spec(noise_std=0.0, contrast_shift=0.0, anomaly_freq_factor=1.0)
    for i in range(10):
        planted = Sample(spec, 1, i, with_anomaly=True)
        clean = Sample(spec, 1, i, with_anomaly=False)
        assert np.array_equal(planted.image, clean.image)


def test_default_anomaly_changes_pixels():
    spec = small_spec()
    planted = Sample(spec, 1, 0, with_anomaly=True)
    clean = Sample(spec, 1, 0, with_anomaly=False)
    assert not np.array_equal(planted.image, clean.image)


def disk_mask(spec, disk):
    (cy, cx), radius = disk
    ys = np.arange(spec.height, dtype=float)[:, None]
    xs = np.arange(spec.width, dtype=float)[None, :]
    return (ys - cy) ** 2 + (xs - cx) ** 2 <= radius ** 2


def test_the_anomaly_is_planted_inside_its_disk_only():
    # the ROI: an abnormal image equals its clean render outside the disk
    # and differs from it inside; a normal sample has no disk
    spec = small_spec(n_normal=10, n_abnormal=10)
    for i in range(spec.n_abnormal):
        planted, clean = Sample(spec, 1, i), Sample(spec, 1, i, False)
        inside = disk_mask(spec, planted.disk)
        differs = (planted.image != clean.image).any(axis=-1)
        assert not differs[~inside].any()
        assert differs[inside].any()
    assert all(Sample(spec, 0, i).disk is None for i in range(spec.n_normal))


def test_disk_mean_shift_matches_contrast():
    spec = DatasetSpec(seed=11, n_normal=5, n_abnormal=60)
    data = generate_dataset(spec)
    diffs = []
    for s in data:
        if s.label != 1:
            continue
        mask = disk_mask(spec, s.disk)
        diffs.append(s.image[mask].mean() - s.image[~mask].mean())
    assert abs(np.mean(diffs) - spec.contrast_shift) < 0.05


def test_episode_structure_and_determinism():
    data = generate_dataset(small_spec(n_normal=30, n_abnormal=30))
    ep = sample_episode(data, k=4, seed=9, query_per_class=10)
    support = [data[i] for i in ep.support_ids]
    query = [data[i] for i in ep.query_ids]
    assert len(support) == 8 and ep.k == 4
    assert sum(s.label for s in support) == 4
    assert len(query) == 20
    assert sum(s.label for s in query) == 10
    assert set(ep.support_ids).isdisjoint(ep.query_ids)
    assert [s.label for s in support] == [0] * 4 + [1] * 4
    ep2 = sample_episode(data, k=4, seed=9, query_per_class=10)
    assert ep.support_ids == ep2.support_ids and ep.query_ids == ep2.query_ids


def test_episode_invariants_many_seeds():
    data = generate_dataset(small_spec(n_normal=25, n_abnormal=25))
    for seed in range(100):
        ep = sample_episode(data, k=2, seed=seed, query_per_class=5)
        labels = [data[i].label for i in ep.support_ids]
        assert labels == [0, 0, 1, 1]
        assert set(ep.support_ids).isdisjoint(ep.query_ids)


def test_episode_capacity_error():
    data = generate_dataset(small_spec(n_normal=5, n_abnormal=5))
    with pytest.raises(CapacityError):
        sample_episode(data, k=4, seed=0, query_per_class=5)


def test_manifest_stable():
    spec = small_spec()
    assert manifest_text(spec) == manifest_text(small_spec())
    assert "seed=3" in manifest_text(spec)
