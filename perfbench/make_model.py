"""Regenerate the strategy-model fixture that the `guided_sg` workload loads.

The model is trained in-repo on expert rollouts from the first scenarios of
`dataset_suite()` (seeds 5000 and up, disjoint from the 9000+ seeds of
`benchmark_suite()` that the workloads drive).  The script writes the model
file and a metadata file holding its SHA-256, the training manifest and the
accuracies; `run.py` refuses a model whose hash differs from that record.

    python3 perfbench/make_model.py

Rerunning it with one BLAS thread reproduces the file byte for byte.
Regenerate the correctness fingerprint afterwards, since the guided
workload's policy sequence depends on the model.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import env

HERE = os.path.dirname(os.path.abspath(__file__))

MODEL_PATH = os.path.join(HERE, "fixtures", "strategy_model.json")
META_PATH = os.path.join(HERE, "fixtures", "strategy_model.meta.json")

# How many leading dataset_suite() scenarios are rolled out for training.
N_SCENARIOS = 16


def main() -> int:
    env.pin_threads()
    from tightnav.predictor import TrainConfig, save_model, train
    from tightnav.scenario import dataset_suite
    from tightnav.simulate import generate_dataset

    t0 = time.perf_counter()
    scenarios = dataset_suite()[:N_SCENARIOS]
    x, y, manifest, records = generate_dataset(scenarios)
    t_data = time.perf_counter() - t0
    model, report = train(x, y, TrainConfig())
    save_model(model, MODEL_PATH)
    with open(MODEL_PATH, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    meta = {
        "sha256": digest,
        "scenarios": [sc.name for sc in scenarios],
        "rollout_labels": {rec.scenario_name: rec.label.name for rec in records},
        "manifest": manifest,
        "train_accuracy": report.train_accuracy,
        "val_accuracy": report.val_accuracy,
        "dataset_seconds": round(t_data, 1),
        "blas": env.blas_info(),
    }
    with open(META_PATH, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(meta, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
