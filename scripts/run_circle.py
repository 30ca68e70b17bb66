#!/usr/bin/env python3
"""Disk-membership experiment: a quadratic boundary learned in one expansion round."""

from contilearn.data import Dataset
from contilearn.engine import EngineConfig, run
from contilearn.modelio import format_report_line
from contilearn.synthetic import circle_dataset


def main() -> None:
    X, y = circle_dataset()
    dataset = Dataset(y, X)

    model, reports = run(dataset, EngineConfig(n_iters=1, seed=2024, algebra_check=True))
    print(f"status: {model.status}")
    for report in reports:
        print(format_report_line(report))
    print(f"final parameter dimension: {model.w.shape[0]}")


if __name__ == "__main__":
    main()
