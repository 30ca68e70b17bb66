"""The benchmark tracer's patch table still names library functions that return what it reads.

``bench/tracing.py`` patches functions by name in the modules that call them
and reads counters from their results, so a renamed function or a changed
result type breaks the traced benchmark. This test runs the tracer, unchanged,
around one small train.
"""

import importlib.util
import json

from contilearn import cli, engine, ensemble
from tests.conftest import REPO


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", REPO / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_wraps_a_train(tmp_path, xor_csv, xor_config):
    tracing = load_tracing()
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
