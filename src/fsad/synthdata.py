"""Seeded synthetic corpus with localized texture anomalies, plus episodes.

Normal images are per-channel products of two sinusoids over a 0.5 baseline
with Gaussian pixel noise. Abnormal images additionally contain one disk in
which the sinusoid frequency is multiplied and the intensity shifted, which
plants a patch-local texture signal for the detection pipeline to find.

A sample is its stream key and holds no pixels; ``render`` draws and renders
a block of samples as one [B, H, W, 3] array, each row equal to the sample
rendered alone (``Sample.image`` is a block of one).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from . import inputs
from .errors import CapacityError, ConfigError, ContractError

# Per-concern tags fed into SeedSequence so adding draws to one concern never
# shifts the streams of another.
_TAG_IMAGE = 101
_TAG_EPISODE = 202


@dataclass(frozen=True)
class DatasetSpec:
    """Generation recipe; the corpus is a pure function of these fields."""

    seed: int = 0
    height: int = 32
    width: int = 32
    freq_min: float = 2.0
    freq_max: float = 4.0
    noise_std: float = 0.05
    blob_radius_min: float = 4.0
    blob_radius_max: float = 8.0
    contrast_shift: float = 0.3
    anomaly_freq_factor: float = 2.0
    n_normal: int = 200
    n_abnormal: int = 200

    def __post_init__(self):
        # numpy's SeedSequence takes no negative entropy
        inputs.integer(self.seed, "data.seed", ConfigError, least=0)
        for name in ("height", "width", "n_normal", "n_abnormal"):
            inputs.integer(getattr(self, name), f"data.{name}", ConfigError)
        for name in ("freq_min", "freq_max", "noise_std", "blob_radius_min",
                     "blob_radius_max", "contrast_shift", "anomaly_freq_factor"):
            inputs.real(getattr(self, name), f"data.{name}", ConfigError)
        if self.n_normal < 1 or self.n_abnormal < 1:
            raise ConfigError("dataset class counts must be >= 1")
        if not 0 < self.freq_min <= self.freq_max:
            raise ConfigError(f"bad frequency range [{self.freq_min}, {self.freq_max}]")
        if not 0 < self.blob_radius_min <= self.blob_radius_max:
            raise ConfigError(
                f"bad radius range [{self.blob_radius_min}, {self.blob_radius_max}]")
        if self.blob_radius_max >= min(self.height, self.width) / 2:
            raise ConfigError("anomaly radius must be under half the image size")
        if self.noise_std < 0:
            raise ConfigError("noise std must be nonnegative")
        # _fields' largest phase is under 2π · frequency · image size; an
        # overflow there would render non-finite pixels
        reach = 2 * math.pi * max(self.height, self.width)
        for key, freq in (("freq_max", self.freq_max),
                          ("anomaly_freq_factor",
                           self.freq_max * abs(self.anomaly_freq_factor))):
            if not math.isfinite(reach * freq):
                raise ConfigError(f"data.{key}={getattr(self, key)} overflows "
                                  f"the rendered sinusoid's phase")


@dataclass(frozen=True)
class EpisodeSpec:
    """Episode protocol: K support and a fixed query size per class, over
    ``count`` episodes whose seeds start at ``seed``."""

    k: int = 4
    query_per_class: int = 50
    count: int = 20
    seed: int = 0

    def __post_init__(self):
        for name, least in (("k", 1), ("query_per_class", 1), ("count", 1), ("seed", 0)):
            inputs.integer(getattr(self, name), f"episode.{name}", ConfigError,
                           least=least)


@dataclass(frozen=True)
class Sample:
    """One labeled image as its stream key: sample ``index`` of class
    ``label`` under ``spec``, whose random stream is a pure function of
    (spec.seed, label, index). ``with_anomaly=False`` renders an abnormal
    sample without its disk. Nothing drawn is kept: ``disk`` and ``image``
    draw from the stream afresh on each read."""

    spec: DatasetSpec
    label: int
    index: int
    with_anomaly: bool = True

    def __post_init__(self):
        if inputs.integer(self.label, "Sample.label", ContractError) not in (0, 1):
            raise ContractError(f"Sample.label must be 0 or 1, got {self.label!r}")
        inputs.integer(self.index, "Sample.index", ContractError, least=0)

    @property
    def disk(self) -> tuple[tuple[float, float], float] | None:
        """The planted disk as ((cy, cx), radius), None for a normal
        sample; a ``with_anomaly=False`` sample reports the disk it
        would plant."""
        return _stream(self.spec, self.label, self.index)[3]

    @property
    def image(self) -> np.ndarray:
        """The [H, W, 3] pixels in [0, 1], rendered afresh from the
        sample's stream."""
        return render([self])[0]


@dataclass(eq=False)
class Episode:
    """Few-shot task: dataset ids of a balanced labeled support and a disjoint
    query set, each a 1-D int64 array, normal ids first."""

    support_ids: np.ndarray
    query_ids: np.ndarray
    k: int


def _stream(spec: DatasetSpec, label: int, index: int):
    """The sample's generator after the draws that precede its pixels, and
    those draws: the field's (3, 2) frequencies and phases, then an abnormal
    sample's radius and centre, returned as its disk ((cy, cx), radius).
    The one owner of the stream's order."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, _TAG_IMAGE, label, index)))
    freqs = rng.uniform(spec.freq_min, spec.freq_max, size=(3, 2))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(3, 2))
    disk = None
    if label == 1:
        radius = float(rng.uniform(spec.blob_radius_min, spec.blob_radius_max))
        cy = float(rng.uniform(radius, spec.height - radius))
        cx = float(rng.uniform(radius, spec.width - radius))
        disk = ((cy, cx), radius)
    return rng, freqs, phases, disk


def _fields(freqs, phases, h: int, w: int) -> np.ndarray:
    """The [B, h, w, 3] sinusoid fields of B samples from their [B, 3, 2]
    frequencies and phases: per pixel and channel, 0.5 + 0.25 · sin(2π·fy·y/h
    + py) · sin(2π·fx·x/w + px), each operation in that order."""
    ys = np.arange(h, dtype=np.float64)[None, :, None]  # [1, h, 1]
    xs = np.arange(w, dtype=np.float64)[None, :, None]  # [1, w, 1]
    rows = np.sin(2 * np.pi * freqs[:, None, :, 0] * ys / h + phases[:, None, :, 0])
    cols = np.sin(2 * np.pi * freqs[:, None, :, 1] * xs / w + phases[:, None, :, 1])
    out = rows[:, :, None, :] * cols[:, None, :, :]
    out *= 0.25
    out += 0.5
    return out


def render(samples) -> np.ndarray:
    """The [B, H, W, 3] pixels in [0, 1] of B samples of one spec.

    Each sample's generator draws in its stream's order (``_stream``), then
    its noise: the noise comes after the disk either way, so suppressing
    the anomaly does not shift the stream. The sinusoid fields are one
    array expression over the block, and each disk and noise draw is added
    to its own row, with the operations of one image per pixel, so a row
    equals the sample rendered alone bit for bit.
    """
    samples = list(samples)
    if not samples:
        raise ContractError("render needs at least one sample: the spec "
                            "fixes the image size")
    spec = samples[0].spec
    bad = next((i for i, s in enumerate(samples) if s.spec != spec), None)
    if bad is not None:
        raise ContractError(f"sample {bad} has another dataset spec than "
                            f"sample 0; a block renders one spec")
    h, w = spec.height, spec.width
    rngs, freqs, phases, disks = zip(*(_stream(spec, s.label, s.index)
                                       for s in samples))
    freqs, phases = np.array(freqs), np.array(phases)
    img = _fields(freqs, phases, h, w)
    planted = [b for b, (s, disk) in enumerate(zip(samples, disks))
               if disk is not None and s.with_anomaly]
    if planted:
        anom = _fields(freqs[planted] * spec.anomaly_freq_factor, phases[planted], h, w)
        anom += spec.contrast_shift
        ys = np.arange(h, dtype=np.float64)[:, None]
        xs = np.arange(w, dtype=np.float64)[None, :]
        for b, field in zip(planted, anom):
            (cy, cx), radius = disks[b]
            mask = (ys - cy) ** 2 + (xs - cx) ** 2 <= radius ** 2
            np.copyto(img[b], field, where=mask[:, :, None])
    for pixels, rng in zip(img, rngs):
        pixels += rng.normal(0.0, spec.noise_std, size=(h, w, 3))
    return np.clip(img, 0.0, 1.0, out=img)


def generate_dataset(spec: DatasetSpec) -> list[Sample]:
    """All normal samples first, then all abnormal samples, as stream keys:
    nothing is drawn or rendered."""
    return ([Sample(spec, 0, i) for i in range(spec.n_normal)]
            + [Sample(spec, 1, i) for i in range(spec.n_abnormal)])


def sample_episode(dataset: list[Sample], k: int, seed: int,
                   query_per_class: int = EpisodeSpec.query_per_class) -> Episode:
    """Draw K support and a fixed-size query per class, without replacement."""
    for what, value, least in (("k", k, 1), ("query_per_class", query_per_class, 1),
                               ("seed", seed, 0)):
        inputs.integer(value, f"sample_episode: {what}", ContractError, least=least)
    labels = np.fromiter(map(operator.attrgetter("label"), dataset), dtype=np.int64,
                         count=len(dataset))
    norm_ids, abn_ids = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
    need = k + query_per_class
    if norm_ids.size < need or abn_ids.size < need:
        raise CapacityError(
            f"need {need} per class, have {norm_ids.size} normal / {abn_ids.size} abnormal")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _TAG_EPISODE)))
    picked_n = norm_ids[rng.permutation(norm_ids.size)]
    picked_a = abn_ids[rng.permutation(abn_ids.size)]
    return Episode(support_ids=np.concatenate((picked_n[:k], picked_a[:k])),
                   query_ids=np.concatenate((picked_n[k:need], picked_a[k:need])),
                   k=k)


def manifest_text(spec: DatasetSpec) -> str:
    """Regeneration recipe as stable key=value lines."""
    lines = [f"{f.name}={getattr(spec, f.name)!r}" for f in fields(spec)]
    return "\n".join(lines) + "\n"
