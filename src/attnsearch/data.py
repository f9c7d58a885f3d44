"""Toy image datasets and the CSV interchange format.

Two deterministic generators: Gaussian class blobs rendered onto a small
pixel grid, and a tiny glyph corpus drawn from fixed 8x8 stencils. CSV rows
are label-first with row-major pixels in [0,1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    images: np.ndarray  # [N,C,H,W] float64 in [0,1]
    labels: np.ndarray  # [N] int64

    def __post_init__(self) -> None:
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels must pair up")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def sample_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])


def make_blob_dataset(classes: int, per_class: int, shape: tuple[int, int, int],
                      noise: float, rng: np.random.Generator,
                      blobs_per_class: int = 2) -> Dataset:
    """Render each class as a fixed sum of Gaussian bumps plus pixel noise."""
    c, h, w = shape
    ys, xs = np.mgrid[0:h, 0:w]
    images = np.empty((classes * per_class, c, h, w))
    labels = np.repeat(np.arange(classes), per_class)
    for k in range(classes):
        template = np.zeros((h, w))
        for _ in range(blobs_per_class):
            cy, cx = rng.uniform(1, h - 1), rng.uniform(1, w - 1)
            spread = rng.uniform(0.8, 1.8)
            amp = rng.uniform(0.6, 1.0)
            template += amp * np.exp(-(((ys - cy) ** 2) + ((xs - cx) ** 2)) / (2 * spread ** 2))
        template = np.clip(template, 0.0, 1.0)
        block = template[None, None] + noise * rng.standard_normal((per_class, c, h, w))
        images[k * per_class:(k + 1) * per_class] = np.clip(block, 0.0, 1.0)
    order = rng.permutation(len(labels))
    return Dataset(images[order], labels[order])


_GLYPHS = [
    "01111110 11000011 11000011 11000011 11000011 11000011 11000011 01111110",
    "00011000 00111000 01011000 00011000 00011000 00011000 00011000 01111110",
    "01111110 11000011 00000011 00000110 00011000 01100000 11000000 11111111",
    "01111110 11000011 00000011 00111110 00000011 00000011 11000011 01111110",
    "00000110 00001110 00011110 00110110 01100110 11111111 00000110 00000110",
    "11111111 11000000 11000000 11111110 00000011 00000011 11000011 01111110",
    "01111110 11000000 11000000 11111110 11000011 11000011 11000011 01111110",
    "11111111 00000011 00000110 00001100 00011000 00110000 01100000 11000000",
    "01111110 11000011 11000011 01111110 11000011 11000011 11000011 01111110",
    "01111110 11000011 11000011 01111111 00000011 00000011 00000011 01111110",
]


def make_digits_dataset(classes: int, per_class: int, noise: float,
                        rng: np.random.Generator) -> Dataset:
    """Fixed 8x8 digit stencils (classes <= 10) plus pixel noise, 1 channel."""
    if not 1 <= classes <= 10:
        raise ValueError("glyph corpus provides at most 10 classes")
    images = np.empty((classes * per_class, 1, 8, 8))
    labels = np.repeat(np.arange(classes), per_class)
    for k in range(classes):
        rows = _GLYPHS[k].split()
        template = np.array([[float(ch) for ch in row] for row in rows])
        block = template[None, None] + noise * rng.standard_normal((per_class, 1, 8, 8))
        images[k * per_class:(k + 1) * per_class] = np.clip(block, 0.0, 1.0)
    order = rng.permutation(len(labels))
    return Dataset(images[order], labels[order])


def split_train_val(data: Dataset, val_fraction: float,
                    rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Stratified split: the same fraction of every class goes to validation."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie strictly between 0 and 1")
    val_idx = []
    for k in np.unique(data.labels):
        members = np.flatnonzero(data.labels == k)
        members = members[rng.permutation(len(members))]
        take = max(1, int(round(val_fraction * len(members))))
        val_idx.extend(members[:take])
    val_mask = np.zeros(len(data), dtype=bool)
    val_mask[val_idx] = True
    return (Dataset(data.images[~val_mask], data.labels[~val_mask]),
            Dataset(data.images[val_mask], data.labels[val_mask]))


def save_csv(path, data: Dataset) -> None:
    """One row per sample: label first, then row-major pixels."""
    with open(path, "w", encoding="utf-8") as fh:
        for img, label in zip(data.images, data.labels):
            pixels = ",".join(f"{v:.12g}" for v in img.reshape(-1))
            fh.write(f"{int(label)},{pixels}\n")


def load_csv(path, shape: tuple[int, int, int]) -> Dataset:
    images, labels = [], []
    size = int(np.prod(shape))
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != size + 1:
                raise ValueError(f"{path}:{line_no}: expected {size + 1} fields, got {len(fields)}")
            try:
                labels.append(int(fields[0]))
                pix = np.array([float(v) for v in fields[1:]]).reshape(shape)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if not ((pix >= 0.0) & (pix <= 1.0)).all():  # NaN fails both
                raise ValueError(f"{path}:{line_no}: pixels must lie in [0,1]")
            images.append(pix)
    return Dataset(np.array(images), np.array(labels, dtype=np.int64))
