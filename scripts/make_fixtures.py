#!/usr/bin/env python3
"""Regenerate the committed example CSVs, fixtures/xor.csv and fixtures/circle.csv.

Both problems need a nonlinear boundary, which makes them useful probes for
the expansion cycle: the parity dataset is the classic case a linear model
cannot beat chance on, and the disk dataset has an exactly quadratic
boundary. ``python scripts/make_fixtures.py`` needs numpy only and writes the
same bytes on every run.
"""

from pathlib import Path

import numpy as np


def xor_dataset(n_per_cell: int = 25, noise_rate: float = 0.05, seed: int = 7):
    """The four parity cells, each repeated, with a fixed share of flipped labels.

    Exactly round(noise_rate * n) labels are flipped, so a perfect parity
    classifier scores exactly 1 - noise_rate on the training rows.
    """
    cells = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
    X = np.repeat(cells, n_per_cell, axis=0)
    y = np.repeat(np.array([0.0, 1.0, 1.0, 0.0]), n_per_cell)
    n = len(y)
    n_flip = int(round(noise_rate * n))
    if n_flip:
        rng = np.random.default_rng(seed)
        flip = rng.choice(n, size=n_flip, replace=False)
        y[flip] = 1.0 - y[flip]
    return X, y


def circle_dataset(n: int = 200, seed: int = 11, half_width: float = 1.5):
    """Uniform points on a square, labelled by membership in the unit disk."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-half_width, half_width, size=(n, 2))
    y = (np.sum(X * X, axis=1) <= 1.0).astype(float)
    return X, y


def write_csv(path, X, y) -> None:
    """Write rows of inputs and a trailing label column, each value as its shortest repr."""
    rows = np.column_stack([X, y])
    lines = [",".join(repr(float(v)) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    fixtures.mkdir(exist_ok=True)

    X, y = xor_dataset()
    write_csv(fixtures / "xor.csv", X, y)
    print(f"wrote {fixtures / 'xor.csv'} ({len(y)} rows, {int(y.sum())} positive)")

    X, y = circle_dataset()
    write_csv(fixtures / "circle.csv", X, y)
    print(f"wrote {fixtures / 'circle.csv'} ({len(y)} rows, {int(y.sum())} positive)")


if __name__ == "__main__":
    main()
