"""The benchmark tracer's patch table still names library functions that return what it reads.

``bench/tracing.py`` patches functions by name in the modules that call them
and reads counters from their results, so a renamed function or a changed
result type breaks the traced benchmark. These tests run the tracer, unchanged,
around one small train and around the scoring commands.
"""

import importlib
import json

from contilearn import cli, engine, ensemble
from tests.conftest import load_bench


def test_the_benchmark_tracer_wraps_a_train(tmp_path, xor_csv, xor_config):
    tracing = load_bench("tracing")
    tracer = tracing.Tracer()
    argv = ["--data", str(xor_csv), "--config", str(xor_config), "--out", str(tmp_path / "m")]
    with tracer.installed():
        assert cli.run is not engine.run
        assert cli.main(["train", *argv]) == 0
    assert cli.run is engine.run and engine.solve_replicates is ensemble.solve_replicates
    summary = tracing.summarize(tracer.take())
    json.dumps(summary)
    assert summary["ensemble.solve_replicates.calls"] > 0
    assert summary["ensemble.replicates_failed"] == 0


def patched_objects(tracing):
    """What each name in the tracer's patch table is bound to now, in table order."""
    objects = []
    for module_name, path, _ in tracing.PATCHES:
        owner = importlib.import_module(f"contilearn.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        objects.append(owner.__dict__[attr])
    return objects


SCORING_SPANS = (
    "data.load_inputs",
    "modelio.load_model",
    "featuremap.transform",
    "featuremap.Layer.apply",
    "model.predict_prob",
    "modelio.save_predictions",
    "algebra.fit_structure_constants",
)


def test_the_benchmark_tracer_wraps_predict_and_algebra(tmp_path, xor_csv, xor_config):
    model = tmp_path / "m"
    argv = ["train", "--data", str(xor_csv), "--config", str(xor_config), "--out", str(model)]
    assert cli.main(argv) == 0

    def score(label):
        outputs = []
        for command in ("predict", "algebra"):
            out = tmp_path / f"{command}.{label}"
            argv = [command, "--model", str(model), "--data", str(xor_csv), "--out", str(out)]
            assert cli.main(argv) == 0
            outputs.append(out.read_bytes())
        return outputs

    untraced = score("untraced")
    tracing = load_bench("tracing")
    tracer = tracing.Tracer()
    originals = patched_objects(tracing)
    with tracer.installed():
        assert not any(now is then for now, then in zip(patched_objects(tracing), originals))
        traced = score("traced")
    assert all(now is then for now, then in zip(patched_objects(tracing), originals))
    assert traced == untraced
    summary = tracing.summarize(tracer.take())
    json.dumps(summary)
    for span in SCORING_SPANS:
        assert summary.get(f"{span}.calls", 0) > 0, span
