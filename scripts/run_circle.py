#!/usr/bin/env python3
"""Disk-membership experiment: a quadratic boundary learned in one expansion round.

Trains on fixtures/circle.csv with configs/circle.cfg, the run that
``contilearn train`` makes from the same two files.
"""

from pathlib import Path

from contilearn.data import load_csv
from contilearn.engine import run
from contilearn.modelio import format_report_line, load_run_config

REPO = Path(__file__).resolve().parent.parent


def main() -> None:
    dataset = load_csv(REPO / "fixtures" / "circle.csv")
    config = load_run_config(REPO / "configs" / "circle.cfg")

    model, stages = run(dataset, config)
    print(f"status: {model.status}")
    for stage in stages:
        print(format_report_line(stage.report))
    print(f"final parameter dimension: {model.w.shape[0]}")


if __name__ == "__main__":
    main()
