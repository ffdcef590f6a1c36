"""curvcheck benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a curvcheck checkout.  Each repetition is a fresh
interpreter (perfbench/rep.py), run one at a time until --seconds have
passed, so module-level caches never carry over from one repetition to
the next.  Every repetition's output is checked: every record must be
on expectation and the check count must equal the reference stored in
perfbench/reference.json.  When a check fails run.py prints no
result and exits 1.

--trace 0 prints the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions, requires their
records to be byte-identical, and prints the per-layer metrics.

The last line of standard output is the result object; the line before
it stamps the run (versions, nproc, seed, sizes, repetition count and
the records' sha256).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("corpus", "family_sweep", "charged_sweep")
FAMILIES = ("theorem41_n4", "theorem41_c_pos_n5", "theorem41_c_neg_n6")
CHARGED_SUITES = ["geometry-symmetries", "theorem21"]

# corpus runs every entry at its declared points; the sweeps set their own.
SIZES = {
    "full": {
        "corpus": {"points": None},
        "family_sweep": {"points": 16},
        "charged_sweep": {"manifests": 4, "points": 60},
    },
    "tiny": {
        "corpus": {"points": 1},
        "family_sweep": {"points": 1},
        "charged_sweep": {"manifests": 1, "points": 2},
    },
}

# One thread for BLAS/OpenMP in every repetition: the workloads are
# single-threaded closed loops.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Every run must end within 180 s, so no child may outlive this budget.
BUDGET_S = 170.0
# Seconds the calibration kernel in rep.py takes at the reference speed
# (its typical mean per repetition on a shared 2-vCPU x86-64 VM, python
# 3.11, numpy 2.4).  Timed phases are reported as seconds at that speed:
# raw seconds times CALIBRATION_REFERENCE_S / the kernel's mean within
# the same repetition.  On that VM the CPU speed drifts by a quarter
# over minutes; the ratio cancels most of that drift.
CALIBRATION_REFERENCE_S = 0.013
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                    "on_expectation_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def charged_manifests(seed: int, count: int, points: int) -> list[dict]:
    """Reissner-Nordstrom manifests with (M, Q) drawn from the seed, Lambda = 0.

    Each r-box straddles the outer horizon r+ = M + sqrt(M^2 - Q^2), so
    sampling rejects the candidates that fall inside it.  Lambda stays 0:
    with Lambda != 0 the Ricci tensor is nearly Einstein at large r and
    the Roter fit rejects those points as ill-conditioned by design.
    """
    from curvcheck.corpus import corpus_get

    template = corpus_get("rn_lambda0")
    rng = random.Random(seed)
    manifests = []
    for k in range(count):
        mass = rng.uniform(0.5, 2.0)
        charge = mass * rng.uniform(0.3, 0.9)
        r_plus = mass + math.sqrt(mass * mass - charge * charge)
        mdef = json.loads(json.dumps(template["manifolds"][0]))
        mdef.pop("pinned_points", None)
        mdef["expect"].pop("pinned_scalars", None)
        name = f"charged_sweep_{k}"
        mdef["name"] = name
        mdef["constants"] = {"M": mass, "Q": charge, "Lam": 0.0}
        mdef["box"]["r"] = [0.6 * r_plus, 3.0 * r_plus]
        manifests.append({
            "name": name,
            "description": f"Charged static spacetime, M={mass!r}, Q={charge!r}, Lambda=0.",
            "seed": seed,
            "points": points,
            "suites": list(CHARGED_SUITES),
            "manifolds": [mdef],
        })
    return manifests


def workload_inputs(workload: str, seed: int, size: str, workdir: str):
    """(manifest sources for rep.py, point override) of one workload."""
    from curvcheck.corpus import corpus_list

    sizes = SIZES[size][workload]
    if workload == "corpus":
        return corpus_list(), sizes["points"]
    if workload == "family_sweep":
        return list(FAMILIES), sizes["points"]
    sources = []
    for manifest in charged_manifests(seed, sizes["manifests"], sizes["points"]):
        path = os.path.join(workdir, f"{manifest['name']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
        sources.append(path)
    return sources, None


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _timeout(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"out of time: a run must end within {BUDGET_S:.0f} s")
    return left


def run_rep(sources, points, seed: int, trace: bool, workdir: str, index: int,
            deadline: float) -> dict:
    out = os.path.join(workdir, f"rep{index}")
    os.makedirs(out)
    job_path = os.path.join(workdir, f"rep{index}.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump({"root": ROOT, "manifests": sources, "points": points,
                   "seed": seed, "out": out, "trace": trace}, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), job_path],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=_timeout(deadline),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {index} ran past the {BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"repetition {index} failed (exit {proc.returncode}):\n{proc.stderr}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["out"] = out
    return rep


def check_rep(rep: dict, expected_checks: int) -> None:
    """Raise BenchError unless the repetition's output is correct."""
    if rep["off_expectation"] or rep["not_ok_records"]:
        raise BenchError(
            f"{rep['off_expectation']} checks off expectation, "
            f"{rep['not_ok_records']} records not ok"
        )
    if rep["checks"] != expected_checks:
        raise BenchError(f"{rep['checks']} checks, reference says {expected_checks}")


def median(values) -> float:
    return float(statistics.median(values))


def warm_up(deadline: float) -> None:
    """Compile curvcheck's bytecode once, so no repetition pays for it."""
    proc = subprocess.run([sys.executable, "-c", "import curvcheck.cli"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=_timeout(deadline))
    if proc.returncode != 0:
        raise BenchError(f"cannot import curvcheck from {SRC}:\n{proc.stderr}")


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str,
            reference: dict) -> tuple[dict, dict]:
    """Run repetitions for `seconds`; return (result object, stamp)."""
    deadline = time.monotonic() + BUDGET_S
    expected = reference["checks"][size][workload]
    workdir = os.path.join(ROOT, ".bench_tmp", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        sources, points = workload_inputs(workload, seed, size, workdir)
        warm_up(deadline)
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            for is_traced in (False, True) if trace else (False,):
                rep = run_rep(sources, points, seed, is_traced, workdir,
                              len(plain) + len(traced), deadline)
                check_rep(rep, expected)
                if plain and rep["records_sha256"] != plain[0]["records_sha256"]:
                    raise BenchError("records differ between repetitions at one seed"
                                     + (" (traced vs untraced)" if is_traced else ""))
                (traced if is_traced else plain).append(rep)
        if trace:
            keep = os.path.join(ROOT, ".bench_out")
            os.makedirs(keep, exist_ok=True)
            shutil.copy(os.path.join(traced[-1]["out"], "spans.jsonl"),
                        os.path.join(keep, f"{workload}-seed{seed}.spans.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [r["run_s"] for r in plain]
    scale = [CALIBRATION_REFERENCE_S / r["calibration_s"] for r in plain]
    checks = sum(r["checks"] for r in plain + traced)
    off = sum(r["off_expectation"] for r in plain + traced)
    if trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = {
            "setup_s": median(r["setup_s"] * k for r, k in zip(plain, scale)),
            "run_s": median(t * k for t, k in zip(runs, scale)),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "on_expectation_ratio": (checks - off) / checks,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    sha = plain[0]["records_sha256"]
    stamp = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "sizes": SIZES[size][workload],
        "manifests": len(sources),
        "trace": trace,
        "python": plain[0]["python"],
        "numpy": plain[0]["numpy"],
        "nproc": os.cpu_count(),
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "raw_setup_s": median(r["setup_s"] for r in plain),
        "raw_run_s": median(runs),
        "raw_run_s_min": min(runs),
        "raw_run_s_max": max(runs),
        "calibration_s": median(r["calibration_s"] for r in plain),
        "checks_per_repetition": expected,
        "records_sha256": sha,
    }
    info = reference.get("corpus_records_sha256", {})
    if workload == "corpus" and size == "full" and seed == info.get("seed"):
        stamp["records_sha256_matches_reference"] = sha == info.get("sha256")
    result = {"correct": True, "attempted": checks, "failed": off, "metrics": metrics}
    return result, stamp


def layer_unit(name: str) -> str:
    if ".self_s" in name:
        return "s"
    return "bytes" if name.endswith(".bytes_out") else "count"


def per_layer(plain: list, traced: list) -> dict:
    from curvcheck.corpus import corpus_list

    metrics = {}
    for name in traced[0]["layers"]:
        value = median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    for entry in corpus_list():
        times = [r["entries"].get(entry, 0.0) for r in plain]
        metrics[f"entry.{entry}.run_s"] = {"value": median(times), "unit": "s"}
    base = median(r["run_s"] for r in plain)
    metrics["trace.base_run_s"] = {"value": base, "unit": "s"}
    # Each traced repetition runs right after its untraced twin, so the
    # per-pair ratio is not moved by the machine's speed drift.
    metrics["trace.overhead_ratio"] = {
        "value": median(t["run_s"] / p["run_s"] for p, t in zip(plain, traced)),
        "unit": "ratio"}
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(SIZES),
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "curvcheck", "__init__.py")):
        print(f"error: no curvcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        result, stamp = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.size, load_reference())
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
