#!/usr/bin/env python3
"""End-to-end parity experiment: train with and without an expansion round.

A linear model cannot beat chance on the parity cells; one expansion round
makes the problem separable. The script prints the per-stage reports and the
trained model's probabilities on the four clean cells.
"""

import numpy as np

from contilearn.data import Dataset
from contilearn.engine import EngineConfig, run
from contilearn.model import predict_prob
from contilearn.modelio import format_report_line
from contilearn.synthetic import xor_dataset


def main() -> None:
    X, y = xor_dataset()
    dataset = Dataset(y, X)

    for n_iters in (0, 1):
        model, reports = run(dataset, EngineConfig(n_iters=n_iters, seed=2024, algebra_check=True))
        print(f"--- n_iters={n_iters} (status: {model.status})")
        for report in reports:
            print(format_report_line(report))

    cells = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    probs = predict_prob(model.w, model.feature_map.transform(cells))
    print("--- P(y=1) on the clean cells")
    for cell, p in zip(cells, probs):
        print(f"  x=({cell[0]:g}, {cell[1]:g})  p={p:.4f}")


if __name__ == "__main__":
    main()
