"""contilearn benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload train-deep --seed 0 --seconds 30 --trace 0

Runs one workload through the public CLI entry point ``contilearn.cli.main``
in this process, checks every output, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (op_s, setup_s,
peak_rss_mb, ok_ratio); with ``--trace 1`` the tracer in ``tracing.py``
wraps each layer's public functions and the metrics are the per-layer ones.
Before the result, one line per metric gives its value, its unit and the
number of samples it was taken from.
Workloads, metrics and seeds are described in README.md next to this file.

The program is imported from ``src/`` of the checkout this file sits in;
without it the script exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("train-deep", "train-tall", "score-bulk")
SETUP_REPEATS = 7
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Deterministic counts printed per traced step, so a reader can compare them exactly.
STEP_COUNTS = (
    "solver.maximize.calls",
    "solver.replicate_solves",
    "solver.newton_steps",
    "solver.objective_evals",
    "solver.max_iters_hit",
    "solver.converged",
    "model.hessian.calls",
    "model.hessian.flops",
    "ensemble.replicates_failed",
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the files it writes, and how to check and summarise them."""

    kind: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[list[bytes], object], list[str]]
    summary: Callable[[list[bytes]], object]


@dataclass(frozen=True)
class Step:
    """What a run repeats and op_s is reported per: one train, or one predict plus one algebra."""

    label: str
    commands: list[Command]


@dataclass(frozen=True)
class Workload:
    step: Step
    setup_code: str


def load_program():
    src = ROOT / "src"
    if not (src / "contilearn" / "cli.py").is_file():
        sys.exit(f"bench: no contilearn sources under {src}")
    sys.path.insert(0, str(src))
    from contilearn import cli

    return cli


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in ("CONTILEARN_THREADS",) + BLAS_THREAD_VARS},
    }


def _text(blob: bytes) -> str:
    return blob.decode("utf-8")


def train_command(case: inputs.TrainCase, work: Path) -> Command:
    data, config = inputs.write_case(case, work)
    out = work / f"{case.name}.model"
    return Command(
        "train",
        ["train", "--data", str(data), "--config", str(config), "--out", str(out)],
        [out, Path(f"{out}.report")],
        lambda blobs, expected: checks.check_training(_text(blobs[1]), case.config, expected),
        lambda blobs: checks.training_summary(_text(blobs[1])),
    )


def build_workload(name: str, seed: int, work: Path, cli) -> Workload:
    """Write the workload's inputs under ``work`` and describe its step."""
    if name in ("train-deep", "train-tall"):
        case = inputs.deep_case() if name == "train-deep" else inputs.tall_case()
        return Workload(Step(case.name, [train_command(case, work)]), "import contilearn")

    prep = train_command(inputs.deep_case(), work)
    if cli.main(prep.argv) != 0:
        sys.exit("bench: preparing the score-bulk model failed")
    model = prep.outputs[0]
    rows = work / "rows.csv"
    inputs.write_csv(rows, inputs.score_rows(seed))
    probs, algebra = work / "rows.probs", work / "rows.algebra"
    predict = Command(
        "predict",
        ["predict", "--model", str(model), "--data", str(rows), "--out", str(probs)],
        [probs],
        lambda blobs, expected: checks.check_predictions(
            _text(blobs[0]), inputs.SCORE_ROWS, expected, checks.load_full_probabilities(seed)
        ),
        lambda blobs: checks.prediction_summary(_text(blobs[0])),
    )
    fit = Command(
        "algebra",
        ["algebra", "--model", str(model), "--data", str(rows), "--out", str(algebra)],
        [algebra],
        lambda blobs, expected: checks.check_algebra(_text(blobs[0]), expected),
        lambda blobs: checks.algebra_summary(_text(blobs[0])),
    )
    setup = (
        "import contilearn\nfrom contilearn.modelio import load_model\n"
        f"load_model({str(model)!r})\n"
    )
    return Workload(Step("s0", [predict, fit]), setup)


def warm_up(cli, work: Path) -> None:
    """One tiny train, so BLAS threads and lazy imports are up before timing."""
    config = "n_iters = 0\nn_replicates = 2\nr_grid = 1.0\n"
    case = replace(inputs.deep_case(), name="warmup", config=config)
    if cli.main(train_command(case, work).argv) != 0:
        sys.exit("bench: warm-up train failed")


def measure_setup(code: str) -> float:
    """Median wall seconds of a fresh interpreter running ``code``, one child at a time.

    The first child, which may compile bytecode, is not counted.
    """
    env = {k: v for k, v in os.environ.items() if k != "CONTILEARN_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"bench: set-up child failed: {proc.stderr.decode(errors='replace')}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


class Runner:
    """Executes steps, times them, and checks every output it produced."""

    def __init__(self, cli, expected: dict) -> None:
        self.cli = cli
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.first: dict[tuple[str, int], tuple[list[bytes], list[str]]] = {}

    def execute(self, step: Step, tracer: tracing.Tracer | None = None) -> float:
        """Run a step's commands; return their wall seconds (checks are not timed)."""
        elapsed = 0.0
        codes = []
        for command in step.commands:
            t0 = perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(command.argv)
                else:
                    code = tracer.call(f"cli.{command.kind}", self.cli.main, command.argv)
            except Exception as exc:  # a traceback is a failed operation, not a crash
                code = f"{type(exc).__name__}: {exc}"
            elapsed += perf_counter() - t0
            codes.append(code)
        for i, (command, code) in enumerate(zip(step.commands, codes)):
            self.attempted += 1
            problems = self._verify(step.label, i, command, code)
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"bench: {step.label} {command.kind}: {problem}", file=sys.stderr)
        return elapsed

    def _verify(self, label: str, i: int, command: Command, code) -> list[str]:
        if code != 0:
            return [f"exit status {code}"]
        try:
            blobs = [path.read_bytes() for path in command.outputs]
        except OSError as exc:
            return [f"missing output: {exc}"]
        key = (label, i)
        if key not in self.first:
            expected = self.expected.get(label, {}).get(command.kind)
            self.first[key] = (blobs, command.check(blobs, expected))
        first, problems = self.first[key]
        return problems if blobs == first else ["output bytes differ from the first repetition"]


def repeat(runner: Runner, step: Step, seconds: float, tracer=None, spans_path=None):
    """Repeat the step for about ``seconds``; at least once.

    Traced, an untraced and a traced execution alternate, and each traced
    execution's spans are summarised and written out after it. Returns the
    untraced seconds of every execution, the traced ditto, the summaries, and
    the process's peak resident MB after the first execution (later ones
    repeat the same work, so only allocator fragmentation could raise it).
    """
    plain, traced, summaries = [], [], []
    start = perf_counter()
    while True:
        plain.append(runner.execute(step))
        if len(plain) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            with tracer.installed():
                traced.append(runner.execute(step, tracer))
            spans = tracer.take()
            summaries.append(tracing.summarize(spans))
            tracing.write_spans(spans_path, spans, str(len(traced)))
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / len(plain) >= seconds:
            return plain, traced, summaries, peak_mb


def layer_metrics(summaries, plain, traced) -> dict:
    """Per-step means of the traced summaries, plus ratios and the tracing overhead."""
    total: dict[str, float] = {}
    for summary in summaries:
        for key, value in summary.items():
            total[key] = total.get(key, 0.0) + value
    per_step = {key: value / len(summaries) for key, value in total.items()}
    solves = total.get("solver.maximize.calls", 0)
    evals = total.get("solver.objective_evals", 0)
    per_step["solver.converged_ratio"] = total["solver.converged"] / solves if solves else 0.0
    per_step["solver.step_accept_ratio"] = total["solver.newton_steps"] / evals if evals else 0.0
    per_step["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return per_step


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    cli = load_program()
    # metric names and units come from the end-to-end and per-layer lists
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment()
    print(json.dumps({"environment": env}), flush=True)
    os.environ.pop("CONTILEARN_THREADS", None)  # the user default: one worker per CPU

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "environment.json").write_text(json.dumps(env, indent=1), encoding="utf-8")
    key = inputs.reference_key(args.workload, args.seed)
    reference = checks.load_reference().get(args.workload, {}).get(key)
    if reference is None:
        print(f"bench: no stored reference for seed {args.seed}; invariant checks only", flush=True)

    workload = build_workload(args.workload, args.seed, work, cli)
    setup_s = None if args.trace else measure_setup(workload.setup_code)
    warm_up(cli, work)
    runner = Runner(cli, reference or {})
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, summaries, peak_mb = repeat(
        runner, workload.step, args.seconds, tracer, work / "spans.tsv.gz"
    )

    if args.trace:
        per_step = layer_metrics(summaries, plain, traced)
        for summary in summaries:
            counts = {key: summary.get(key, 0) for key in STEP_COUNTS}
            print(json.dumps({"traced_step": workload.step.label, **counts}), flush=True)
        values = {m["name"]: per_step.get(m["name"], 0.0) for m in spec["per_layer"]}
        samples = dict.fromkeys(values, len(summaries))
    else:
        values = {
            "op_s": statistics.median(plain),
            "setup_s": setup_s,
            "peak_rss_mb": peak_mb,
            "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        }
        samples = {"op_s": len(plain), "setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
        samples["ok_ratio"] = runner.attempted
        print(json.dumps({"op_s_per_step": plain}), flush=True)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}
    for name, metric in metrics.items():
        print(f"bench: {name} = {metric['value']!r} {metric['unit']} ({samples[name]} samples)")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
