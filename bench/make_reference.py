"""Write the reference outputs the benchmark's checks compare against.

    python3 bench/make_reference.py

Runs the step of every workload once per seed 0-20 (the training
workloads, whose inputs do not depend on the seed, once) with the program
in ``src/``. Writes ``reference.json``, the summaries that ``checks.py``
compares (stage r, k, accuracy, objective and closure residual; probe-row
and mean probabilities; every algebra report field), and
``reference_probs.npz``, every probability of the seeds in
``checks.FULL_SEEDS``. Regenerate only when the program's outputs are meant
to change.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

import checks
import inputs
import run

SEEDS = range(21)


def main() -> None:
    cli = run.load_program()
    os.environ.pop("CONTILEARN_THREADS", None)
    reference: dict = {}
    full = {}
    work = run.WORK / f"reference-{os.getpid()}"
    for seed in SEEDS:
        for name in run.WORKLOADS:
            key = inputs.reference_key(name, seed)
            if key in reference.get(name, {}):
                continue
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            step = run.build_workload(name, seed, work, cli).step
            entry = {}
            for command in step.commands:
                if cli.main(command.argv) != 0:
                    raise SystemExit(f"{name} seed {seed}: {command.kind} failed")
                blobs = [p.read_bytes() for p in command.outputs]
                entry[command.kind] = command.summary(blobs)
                if command.kind == "predict" and seed in checks.FULL_SEEDS:
                    probs = checks.parse_predictions(blobs[0].decode("utf-8"))
                    full[f"seed{seed}"] = probs.astype(np.float32)
            reference.setdefault(name, {})[key] = {step.label: entry}
            print(f"{name} seed {seed} done", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    np.savez_compressed(checks.FULL_PROBS_PATH, **full)


if __name__ == "__main__":
    main()
