#!/usr/bin/env python3
"""Disk-membership experiment: a quadratic boundary learned in one expansion round."""

from contilearn.data import Dataset
from contilearn.engine import EngineConfig, run
from contilearn.modelio import format_report_line
from contilearn.synthetic import circle_dataset


def main() -> None:
    X, y = circle_dataset()
    dataset = Dataset(y, X)

    result = run(dataset, EngineConfig(n_iters=1, seed=2024, algebra_check=True))
    print(f"status: {result.status}")
    for report in result.reports:
        print(format_report_line(report))
    print(f"final parameter dimension: {result.w.shape[0]}")


if __name__ == "__main__":
    main()
