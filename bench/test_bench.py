"""Self-tests of the benchmark: tracing, restoration and the output checks.

    python3 -m pytest bench/test_bench.py -q

They train a reduced train-deep problem (one round, 8 replicates), so they
take seconds, and they use the same step and check code as ``run.py``.
"""

from __future__ import annotations

import importlib
from dataclasses import replace

import pytest

import checks
import inputs
import run
import tracing

cli = run.load_program()


@pytest.fixture()
def small_step(tmp_path):
    case = inputs.deep_case()
    case = replace(case, config=case.config.replace("n_iters = 3", "n_iters = 1").replace(
        "n_replicates = 64", "n_replicates = 8"
    ))
    return run.Step(case.name, [run.train_command(case, tmp_path)])


def _outputs(step):
    return [path.read_bytes() for path in step.commands[0].outputs]


def _traced_counts(step):
    tracer = tracing.Tracer()
    runner = run.Runner(cli, {})
    with tracer.installed():
        runner.execute(step, tracer)
    assert runner.failed == 0
    summary = tracing.summarize(tracer.take())
    return {key: summary.get(key, 0) for key in run.STEP_COUNTS}, _outputs(step)


def test_traced_counts_repeat_exactly(small_step):
    first, _ = _traced_counts(small_step)
    second, _ = _traced_counts(small_step)
    assert first == second
    assert first["solver.replicate_solves"] == 4 * 8 * 2  # grid size x replicates x stages
    assert first["solver.maximize.calls"] == first["solver.replicate_solves"] + 2


def test_tracing_leaves_model_and_report_bytes_unchanged(small_step):
    runner = run.Runner(cli, {})
    runner.execute(small_step)
    plain = _outputs(small_step)
    _, traced = _traced_counts(small_step)
    assert traced == plain


def test_wrappers_are_restored(small_step):
    def snapshot():
        out = []
        for module_name, path, _ in tracing.PATCHES:
            owner = importlib.import_module(f"contilearn.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            out.append(owner.__dict__[attr])
        return out

    before = snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(a is not b for a, b in zip(snapshot(), before))
        run.Runner(cli, {}).execute(small_step, tracer)
    assert all(a is b for a, b in zip(snapshot(), before))


def test_pool_spans_take_the_submitting_span_as_parent(small_step, monkeypatch):
    monkeypatch.setenv("CONTILEARN_THREADS", "2")
    tracer = tracing.Tracer()
    with tracer.installed():
        run.Runner(cli, {}).execute(small_step, tracer)
    spans = tracer.take()
    names = {s[0]: s[1] for s in spans}
    solves = [s for s in spans if s[1] == "solver.maximize"]
    assert {names.get(s[2]) for s in solves} == {"ensemble.solve_replicates", "engine.run"}
    assert len({s[3] for s in solves}) > 1  # replicate solves ran on pool threads


def _score(cli_command, step, tmp_path, n_rows=3000):
    run.Runner(cli, {}).execute(step)
    model = step.commands[0].outputs[0]
    rows = tmp_path / "rows.csv"
    inputs.write_csv(rows, inputs.score_rows(inputs.DEFAULT_SEED)[:n_rows])
    out = tmp_path / f"rows.{cli_command}"
    argv = [cli_command, "--model", str(model), "--data", str(rows), "--out", str(out)]
    assert cli.main(argv) == 0
    return out.read_text()


def test_prediction_check_rejects_a_perturbed_file(tmp_path, small_step):
    text = _score("predict", small_step, tmp_path)
    expected = checks.prediction_summary(text)
    full = checks.parse_predictions(text).astype("float32").astype(float)
    assert checks.check_predictions(text, 3000, expected) == []
    assert checks.check_predictions(text, 3000, None, full) == []

    lines = text.splitlines()
    probe = lines[:]
    probe[checks.PROBE_STRIDE] = repr(float(probe[checks.PROBE_STRIDE]) + 1e-4)
    assert checks.check_predictions("\n".join(probe) + "\n", 3000, expected)
    other = lines[:]
    other[1] = repr(float(other[1]) + 1e-5)  # not a probe row: only the full vector sees it
    assert checks.check_predictions("\n".join(other) + "\n", 3000, None, full)
    assert checks.check_predictions("\n".join(lines[:-1]) + "\n", 3000, expected)


def test_algebra_check_rejects_a_changed_constant(tmp_path, small_step):
    text = _score("algebra", small_step, tmp_path)
    expected = checks.algebra_summary(text)
    assert checks.check_algebra(text, expected) == []
    for key, scale in (("c", 1e-4), ("associativity_residual", 1e-4), ("product_rms", 1e-4)):
        moved = dict(expected)
        if key == "c":
            moved["c"] = list(expected["c"])
            moved["c"][-1] += scale * max(map(abs, expected["c"]))
        else:
            moved[key] = expected[key] * (1 + scale)
        assert checks.check_algebra(text, moved), key
    flipped = dict(expected, ill_conditioned=not expected["ill_conditioned"])
    assert checks.check_algebra(text, flipped)


def test_self_time_counts_gaps_on_pool_threads():
    parent = (0, "ensemble.solve_replicates", -1, 1, 0.0, 10.0, None)
    children = [
        (1, "solver.maximize", 0, 2, 1.0, 3.0, None),
        (2, "solver.maximize", 0, 2, 4.0, 6.0, None),
        (3, "solver.maximize", 0, 3, 1.0, 2.0, None),
        (4, "solver.maximize", 0, 3, 2.5, 9.0, None),
        (5, "model.log_likelihood", 0, 1, 9.5, 9.8, None),
    ]
    # own thread: 10 - |[1, 9] u [9.5, 9.8]|; thread 2: 5 - 4; thread 3: 8 - 7.5
    assert tracing.self_seconds(parent, children) == pytest.approx(1.7 + 1.0 + 0.5)
    assert tracing.summarize([parent] + children)["ensemble.solve_replicates.self_s"] == (
        pytest.approx(3.2)
    )


def test_training_check_rejects_a_changed_choice(small_step):
    run.Runner(cli, {}).execute(small_step)
    report = _outputs(small_step)[1].decode()
    case_config = (small_step.commands[0].outputs[0].parent / "d0.cfg").read_text()
    expected = checks.training_summary(report)
    assert checks.check_training(report, case_config, expected) == []
    moved = [dict(stage) for stage in expected]
    moved[0]["k"] = moved[0]["k"] + 1
    assert checks.check_training(report, case_config, moved)
    moved = [dict(stage) for stage in expected]
    moved[-1]["best_L"] *= 1 + 10 * checks.REL_TOL
    assert checks.check_training(report, case_config, moved)


def test_runner_counts_changed_bytes_as_a_failure(small_step):
    runner = run.Runner(cli, {})
    runner.execute(small_step)
    report = small_step.commands[0].outputs[1]
    original_main = runner.cli.main

    class Tampering:
        @staticmethod
        def main(argv):
            code = original_main(argv)
            report.write_text(report.read_text() + "\n")
            return code

    runner.cli = Tampering
    runner.execute(small_step)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_every_repetition_of_a_failing_output_counts(small_step):
    runner = run.Runner(cli, {})
    runner.execute(small_step)
    moved = checks.training_summary(_outputs(small_step)[1].decode())
    moved[0]["r"] = -1.0
    runner = run.Runner(cli, {"d0": {"train": moved}})
    runner.execute(small_step)
    runner.execute(small_step)
    assert (runner.attempted, runner.failed) == (2, 2)
