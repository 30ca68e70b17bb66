"""Output checks for every benchmark operation.

Each check returns a list of problems; an empty list means the output
passed. Against a stored reference (``reference.json``, written by
``make_reference.py``):

* training: the chosen r and k of every stage and the training accuracy
  match exactly; the best full-data objective and the closure residual
  match within ``REL_TOL``;
* scoring: on the seeds in ``FULL_SEEDS`` every row's probability, and on
  the others every ``PROBE_STRIDE``-th row's probability and the mean over
  all rows, match within ``PROB_ABS_TOL`` (the full vectors are stored as
  float32 in ``reference_probs.npz``, which rounds them by less than 3e-8);
  the algebra report's ``n`` and ``ill_conditioned`` match exactly, its
  residuals and ``product_rms`` within ``REL_TOL``, and every structure
  constant within ``REL_TOL`` times the largest constant's magnitude.

The tolerances leave room for a solver change that moves the last bits of
a model; a whole-file digest would not. Seeds without a stored reference
get the invariant checks only (see ``check_training``). Byte identity
across repetitions of one operation within a run is checked in ``run.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-6
PROB_ABS_TOL = 1e-6
PROBE_STRIDE = 1000
FULL_SEEDS = (0, 20)  # the default and the held-out seed

REFERENCE_PATH = Path(__file__).with_name("reference.json")
FULL_PROBS_PATH = Path(__file__).with_name("reference_probs.npz")
ALGEBRA_RESIDUALS = (
    "closure_residual",
    "normalized_residual",
    "associativity_residual",
    "product_rms",
)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def load_full_probabilities(seed: int) -> np.ndarray | None:
    """Every stored score-bulk probability of ``seed``, or None if only probes are stored."""
    if seed not in FULL_SEEDS:
        return None
    with np.load(FULL_PROBS_PATH) as store:
        return store[f"seed{seed}"].astype(float)


def parse_report(text: str) -> list[dict]:
    """Report lines as dicts of floats (``None`` for fields written as ``none``)."""
    stages = []
    for line in text.splitlines():
        fields = dict(token.partition("=")[::2] for token in line.split())
        stages.append({k: None if v == "none" else float(v) for k, v in fields.items()})
    return stages


def training_summary(report_text: str) -> list[dict]:
    """The per-stage values a reference stores for a training run."""
    return [
        {key: stage[key] for key in ("r", "k", "accuracy", "best_L", "closure")}
        for stage in parse_report(report_text)
    ]


def _close(value, expected, rel: float) -> bool:
    if value is None or expected is None:
        return value is expected
    return abs(value - expected) <= rel * max(abs(expected), 1e-300)


def check_training(report_text: str, config_text: str, expected: list[dict] | None) -> list[str]:
    """Invariants of a training report, then the comparison with its reference.

    Invariants: one line per stage up to n_iters + 1, each r on the config's
    grid (the default grid here), k at most k_max, accuracy in [0, 1], and
    the best objective no worse than the embedded previous mean's (the
    containment property of the cycle).
    """
    try:
        stages = parse_report(report_text)
    except ValueError as exc:
        return [f"unparseable report: {exc}"]
    config = dict(line.replace(" ", "").split("=") for line in config_text.splitlines())
    problems = []
    if not 1 <= len(stages) <= int(config["n_iters"]) + 1:
        problems.append(f"{len(stages)} report lines for n_iters={config['n_iters']}")
    for i, stage in enumerate(stages):
        if stage.get("r") not in (0.01, 0.1, 1.0, 10.0):
            problems.append(f"stage {i}: r={stage.get('r')} is not on the grid")
        if stage.get("k") is not None and not 0 <= stage["k"] <= int(config["k_max"]):
            problems.append(f"stage {i}: k={stage['k']} outside [0, k_max]")
        if not 0.0 <= stage.get("accuracy", -1.0) <= 1.0:
            problems.append(f"stage {i}: accuracy {stage.get('accuracy')} outside [0, 1]")
        best, embed = stage.get("best_L"), stage.get("embed_L")
        if best is None or embed is None or not best >= embed - REL_TOL * abs(embed):
            problems.append(f"stage {i}: best objective {best} below embedded {embed}")
    if expected is None or problems:
        return problems
    got = training_summary(report_text)
    if len(got) != len(expected):
        return [f"{len(got)} stages, reference has {len(expected)}"]
    for i, (g, e) in enumerate(zip(got, expected)):
        for key in ("r", "k", "accuracy"):
            if g[key] != e[key]:
                problems.append(f"stage {i}: {key}={g[key]!r}, reference {e[key]!r}")
        for key in ("best_L", "closure"):
            if not _close(g[key], e[key], REL_TOL):
                problems.append(f"stage {i}: {key}={g[key]!r}, reference {e[key]!r}")
    return problems


def parse_predictions(text: str) -> np.ndarray:
    return np.array([float(line) for line in text.splitlines()])


def prediction_summary(text: str) -> dict:
    probs = parse_predictions(text)
    return {
        "rows": len(probs),
        "mean": math.fsum(probs) / len(probs),
        "probes": probs[::PROBE_STRIDE].tolist(),
    }


def check_predictions(
    text: str, n_rows: int, expected: dict | None, full: np.ndarray | None = None
) -> list[str]:
    """Row count and range always; every row against ``full`` if given, else the probes and mean."""
    try:
        probs = parse_predictions(text)
    except ValueError as exc:
        return [f"unparseable prediction: {exc}"]
    if len(probs) != n_rows:
        return [f"{len(probs)} predictions for {n_rows} rows"]
    if not np.all((probs > 0.0) & (probs < 1.0)):
        return ["a probability lies outside (0, 1)"]
    if full is not None:
        diff = np.abs(probs - full)
        worst = int(np.argmax(diff))
        if diff[worst] > PROB_ABS_TOL:
            got, ref = float(probs[worst]), float(full[worst])
            return [f"row {worst}: probability {got!r}, reference {ref!r}"]
        return []
    if expected is None:
        return []
    got = prediction_summary(text)
    problems = []
    if abs(got["mean"] - expected["mean"]) > PROB_ABS_TOL:
        problems.append(f"mean probability {got['mean']!r}, reference {expected['mean']!r}")
    for i, (g, e) in enumerate(zip(got["probes"], expected["probes"])):
        if abs(g - e) > PROB_ABS_TOL:
            problems.append(f"row {i * PROBE_STRIDE}: probability {g!r}, reference {e!r}")
    return problems


def algebra_summary(text: str) -> dict:
    """Every field of an algebra report; ``c`` lists the constants c{a}.{b} for a <= b in order."""
    fields = dict(line.split(" = ", 1) for line in text.splitlines())
    n = int(fields.pop("n"))
    summary = {
        "n": n,
        "ill_conditioned": {"true": True, "false": False}[fields.pop("ill_conditioned")],
    }
    for key in ALGEBRA_RESIDUALS:
        summary[key] = float(fields.pop(key))
    summary["c"] = [
        float(v) for a in range(n) for b in range(a, n) for v in fields.pop(f"c{a}.{b}").split(",")
    ]
    if fields:
        raise ValueError(f"unexpected fields {sorted(fields)}")
    return summary


def check_algebra(text: str, expected: dict | None) -> list[str]:
    try:
        got = algebra_summary(text)
    except (KeyError, ValueError) as exc:
        return [f"unparseable algebra report: {exc!r}"]
    residuals = [got[key] for key in ALGEBRA_RESIDUALS]
    if not all(math.isfinite(v) and v >= 0 for v in residuals):
        return [f"algebra residuals not finite and non-negative: {residuals}"]
    if not all(math.isfinite(v) for v in got["c"]):
        return ["a structure constant is not finite"]
    if expected is None:
        return []
    problems = []
    for key in ("n", "ill_conditioned"):
        if got[key] != expected[key]:
            problems.append(f"algebra {key}={got[key]!r}, reference {expected[key]!r}")
    for key in ALGEBRA_RESIDUALS:
        if not _close(got[key], expected[key], REL_TOL):
            problems.append(f"{key}={got[key]!r}, reference {expected[key]!r}")
    if problems:
        return problems
    c, c_ref = np.array(got["c"]), np.array(expected["c"])
    worst = float(np.max(np.abs(c - c_ref)))
    if worst > REL_TOL * float(np.max(np.abs(c_ref))):
        problems.append(f"structure constants differ by up to {worst!r}")
    return problems
