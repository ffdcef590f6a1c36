"""One benchmark repetition, run in a fresh interpreter by run.py.

    python3 perfbench/rep.py JOB.json

JOB.json names the checkout root, the manifests (corpus names or
manifest files), the point-count override, the sampling seed, the
report directory and whether to trace.  The repetition prints one JSON
line with its timings, check counts and the sha256 of its records.

Set-up is everything a first ``run_manifest`` would otherwise pay
before checking anything: importing curvcheck, loading and validating
the manifests, building every job, and sampling one point per manifold,
which parses, differentiates and compiles each chart's g/dg/d2g program.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

# Calibration samples taken after set-up and after the run; two more go
# before each manifest.  All sit outside the timed phases.
CALIBRATION_SAMPLES = 6


def calibrate(np) -> float:
    """Seconds for a fixed mix of interpreter work and n = 6 einsums.

    The kernel does not touch curvcheck.  run.py divides the timed
    phases by it to take out the drift of the machine's speed.
    """
    start = time.perf_counter()
    table: dict = {}
    for k in range(40_000):
        key = (k % 97, k % 13)
        table[key] = table.get(key, 0.0) + k * 0.5
    e = np.linspace(0.0, 1.0, 6 ** 4).reshape(6, 6, 6, 6)
    t = np.linspace(1.0, 2.0, 6 ** 4).reshape(6, 6, 6, 6)
    for _ in range(8):
        np.einsum("xyas,sbcd->abcdxy", e, t)
    return time.perf_counter() - start


def main(job_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    from curvcheck import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"curvcheck imported from {cli.__file__}, not from {src}")
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    import numpy as np

    manifests = [cli.load_manifest(source) for source in job["manifests"]]
    for manifest in manifests:
        for index, mdef in enumerate(manifest["manifolds"]):
            cli.sample_points(cli.build_job(mdef), 1, np.random.default_rng([job["seed"], index]))
    setup_s = time.perf_counter() - t0

    calibration = [calibrate(np) for _ in range(CALIBRATION_SAMPLES)]
    entries = {}
    summaries = []
    for manifest in manifests:
        calibration += [calibrate(np) for _ in range(2)]
        start = time.perf_counter()
        records, summary = cli.run_manifest(manifest, points=job["points"], seed=job["seed"])
        cli.write_report(records, summary, job["out"])
        entries[manifest["name"]] = time.perf_counter() - start
        summaries.append(summary)
    calibration += [calibrate(np) for _ in range(CALIBRATION_SAMPLES)]

    layers = None
    if tracer is not None:
        tracer.restore()
        tracer.write_spans(os.path.join(job["out"], "spans.jsonl"))
        layers = tracer.layer_metrics()

    # Imported here, after the timed phases, so set-up does not pay for them.
    import hashlib
    import platform
    import resource

    digest = hashlib.sha256()
    not_ok = 0
    for manifest in manifests:
        with open(os.path.join(job["out"], f"{manifest['name']}.records.jsonl"), "rb") as fh:
            data = fh.read()
        digest.update(data)
        not_ok += sum(1 for line in data.splitlines() if not json.loads(line)["ok"])
    result = {
        "setup_s": setup_s,
        "run_s": sum(entries.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": sum(s["counts"]["checks"] for s in summaries),
        "off_expectation": sum(s["counts"]["off_expectation"] for s in summaries),
        "not_ok_records": not_ok,
        "records_sha256": digest.hexdigest(),
        "entries": entries,
        # The mean, not the median: a slow spell lengthens the timed
        # phases in proportion to its length, and so it does the mean.
        "calibration_s": statistics.fmean(calibration),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
