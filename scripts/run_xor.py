#!/usr/bin/env python3
"""End-to-end parity experiment: train with and without an expansion round.

A linear model cannot beat chance on the parity cells; one expansion round
makes the problem separable. The script trains on fixtures/xor.csv with
configs/xor.cfg at n_iters 0 and 1, and prints the per-stage reports and the
second model's probabilities on the four clean cells.
"""

from dataclasses import replace
from pathlib import Path

from contilearn.data import load_csv
from contilearn.engine import run
from contilearn.model import predict_prob
from contilearn.modelio import format_report_line, load_run_config

import numpy as np  # after contilearn, whose root pins one BLAS thread before numpy loads

REPO = Path(__file__).resolve().parent.parent


def main() -> None:
    dataset = load_csv(REPO / "fixtures" / "xor.csv")
    config = load_run_config(REPO / "configs" / "xor.cfg")

    for n_iters in (0, 1):
        model, stages = run(dataset, replace(config, n_iters=n_iters))
        print(f"--- n_iters={n_iters} (status: {model.status})")
        for stage in stages:
            print(format_report_line(stage.report))

    cells = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    probs = predict_prob(model.w, model.feature_map.transform(cells))
    print("--- P(y=1) on the clean cells")
    for cell, p in zip(cells, probs):
        print(f"  x=({cell[0]:g}, {cell[1]:g})  p={p:.4f}")


if __name__ == "__main__":
    main()
