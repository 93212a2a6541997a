"""Benchmark runner for the ``secradius`` CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Each repetition is a fresh single-process worker (``worker.py``) that
imports ``secradius.cli`` from the checkout's ``src`` and calls ``main`` once
with the workload's command line.  The runner times every repetition from
outside, reads the worker's CPU time and peak RSS from ``wait4``, and checks
the JSON report the CLI wrote (``checks.py``).  Repetitions run back to back
while the next one is expected to end within ``--seconds``, and metrics are
medians over them.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics; with ``--trace 1`` untraced and traced repetitions alternate and it
reports the per-layer metrics of the traced ones (``tracer.py``).  The line
before it records the environment.  Raw per-repetition data go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Checker, check_report
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

# At least this many repetitions per run (untraced/traced pairs when traced).
MIN_REPS = 2
# Import-only workers started before the repetitions: they warm the file
# cache and give setup_s more samples than the few long repetitions would.
SETUP_SAMPLES = 10

VERIFY_COUNT = 600
CONJECTURE2_COUNT = 50
SEED = "{seed}"


@dataclass(frozen=True)
class Workload:
    cli_args: tuple[str, ...]
    sections: int  # boundary scans (verify) or radius solves (scans) per repetition
    tol: float
    params: dict  # report parameters the command line must have produced
    structure: dict  # exact call counts of traced layers per repetition

    def args(self, seed: int) -> list[str]:
        return [a.replace(SEED, str(seed)) for a in self.cli_args]


# Why each workload exists is recorded in README.md.
WORKLOADS = {
    "verify": Workload(
        ("verify", "--count", str(VERIFY_COUNT), "--atom-count", "3",
         "--n-max", "20", "--tol", "1e-9", "--seed", SEED),
        sections=(VERIFY_COUNT + 1) * 19,
        tol=1e-9,
        params={"count": VERIFY_COUNT, "atom_count": 3, "n_max": 20, "grid": 2048,
                "radius": 1.0 / 3.0 - 1e-6, "tol": 1e-9, "seed": SEED},
        structure={"zoo.synthesize_F": VERIFY_COUNT + 1},
    ),
    "conjecture2": Workload(
        ("scan", "--target", "conjecture2", "--count", str(CONJECTURE2_COUNT),
         "--atom-count", "3", "--sections", "2..30", "--grid", "512",
         "--tol", "1e-7", "--seed", SEED),
        sections=(CONJECTURE2_COUNT + 1) * 29,
        tol=1e-7,
        params={"count": CONJECTURE2_COUNT, "atom_count": 3, "n_min": 2, "n_max": 30,
                "grid": 512, "tol": 1e-7, "seed": SEED},
        structure={"radius.criterion_radius": (CONJECTURE2_COUNT + 1) * 29},
    ),
    "classical": Workload(
        ("scan", "--target", "classical", "--sections", "5..40"),
        sections=36,
        tol=1e-9,
        params={"n_min": 5, "n_max": 40, "grid": 2048, "tol": 1e-9},
        structure={"radius.criterion_radius": 36},
    ),
}

# Extra per-layer counts: metric suffix -> key of the tracer's layer counts.
EXTRA_COUNTS = {
    "radius.boundary_min": {"pole_rejects": "PoleProximityError"},
    "radius.golden_section_min": {"fn_evals": "fn_evals"},
    "radius.count_zeros": {
        "nonzero": "nonzero",
        "zero_on_circle": "ZeroOnCircleError",
        "winding_errors": "WindingError",
    },
    "radius.criterion_radius": {
        "probes": "probes",
        "fallbacks": "fallbacks",
        "no_witness": "no_witness",
        "clamped": "clamped",
    },
}


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    rss_mb: float
    worker: dict
    report: dict


def run_rep(cli_args: list[str], trace_path: Path | None) -> Rep:
    """Run one worker to completion and collect its measurements."""
    report_path = OUT / "report.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(ROOT / "src"), str(report_path)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    cmd += ["--", *cli_args]
    with open(OUT / "worker.out", "w+b") as out, open(OUT / "worker.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if proc.returncode != 0 or not report_path.exists():
        sys.stderr.write(stderr[-4000:])
        raise SystemExit(f"worker failed with exit code {proc.returncode}: {cmd}")
    worker = json.loads(stdout.strip().splitlines()[-1])
    report = json.loads(report_path.read_text(encoding="utf-8"))
    return Rep(
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        worker=worker,
        report=report,
    )


def sample_setup() -> float:
    """Import time of ``secradius.cli`` in one fresh import-only worker."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"import-only worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout)["setup_s"]


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(worker: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "blas": worker["blas"],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": git_commit(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(reps: list[Rep], setups: list[float], sections: int) -> dict:
    med = statistics.median
    return {
        "sections_per_s": metric(med(sections / r.wall_s for r in reps), "1/s"),
        "cpu_s": metric(med(r.cpu_s for r in reps), "s"),
        "peak_rss_mb": metric(med(r.rss_mb for r in reps), "MB"),
        "setup_s": metric(med(setups + [r.worker["setup_s"] for r in reps]), "s"),
    }


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it, and the
    nearest-rank sample at that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(0, int(100 * (1 - 10 / n)))
    rank = max(1, -(-pct * n // 100))
    return pct, ordered[rank - 1]


def per_layer(untraced: list[Rep], traced: list[Rep]) -> dict:
    layers = traced[0].worker["layers"]
    out = {}
    for mod, fn in LAYERS:
        name = f"{mod}.{fn}"
        out[f"{name}.calls"] = metric(layers[name]["calls"], "count")
        self_s = statistics.median(r.worker["layers"][name]["self_s"] for r in traced)
        out[f"{name}.self_s"] = metric(self_s, "s")
        for suffix, key in EXTRA_COUNTS.get(name, {}).items():
            out[f"{name}.{suffix}"] = metric(layers[name]["counts"].get(key, 0), "count")
    solves = [
        d for r in traced for d in r.worker["layers"]["radius.criterion_radius"]["durations_s"]
    ]
    if solves:
        pct, tail = tail_percentile(solves)
        p50 = statistics.median(solves)
    else:
        pct, tail, p50 = 0, 0.0, 0.0
    out["radius.criterion_radius.p50_ms"] = metric(1e3 * p50, "ms")
    out["radius.criterion_radius.tail_ms"] = metric(1e3 * tail, "ms")
    out["radius.criterion_radius.tail_pct"] = metric(pct, "%")
    overhead = statistics.median(r.wall_s for r in traced) - statistics.median(
        r.wall_s for r in untraced
    )
    out["trace.overhead_s"] = metric(overhead, "s")
    return out


def layer_counts(rep: Rep) -> dict:
    return {k: (v["calls"], v["counts"]) for k, v in rep.worker["layers"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "secradius" / "cli.py").is_file():
        raise SystemExit(f"no secradius source tree under {ROOT / 'src'}")

    workload = WORKLOADS[args.workload]
    cli_args = workload.args(args.seed)
    params = {k: args.seed if v == SEED else v for k, v in workload.params.items()}
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    reference = references.get(" ".join(cli_args))
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}.json"

    start = time.perf_counter()
    setups = [sample_setup() for _ in range(SETUP_SAMPLES)]
    untraced: list[Rep] = []
    traced: list[Rep] = []
    while True:
        # Start another repetition (or untraced/traced pair) only if it is
        # expected to end within --seconds, so that the run length is bounded.
        elapsed = time.perf_counter() - start
        last = sum(r.wall_s for r in untraced[-1:] + traced[-1:])
        if len(untraced) >= MIN_REPS and elapsed + last > args.seconds:
            break
        untraced.append(run_rep(cli_args, None))
        if args.trace:
            traced.append(run_rep(cli_args, spans))

    check = Checker()
    first = dict(untraced[0].report, generated_at=None)
    for rep in untraced + traced:
        check_report(check, args.workload, rep.report, rep.worker["rc"], workload.tol,
                     params, reference)
        same = dict(rep.report, generated_at=None) == first
        check.expect(same, "report differs between repetitions of one seed")
    for rep in traced:
        check.expect(layer_counts(rep) == layer_counts(traced[0]),
                     "traced layer counts differ between repetitions")
        for name, calls in workload.structure.items():
            got = rep.worker["layers"][name]["calls"]
            check.expect(got == calls, f"{name} calls = {got}, expected {calls}")

    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, setups, workload.sections)
    env = environment(untraced[0].worker)
    result = {
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": metrics,
    }
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "cli_args": cli_args,
        "reference_checked": reference is not None,
        "environment": env,
        "failures": check.failures,
        "setup_samples_s": setups,
        "reps": [
            {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
             "traced": "layers" in r.worker,
             **{k: v for k, v in r.worker.items() if k != "layers"}}
            for r in untraced + traced
        ],
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(raw, indent=1), encoding="utf-8")

    for message in check.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced repetitions, references "
          f"{'checked' if reference is not None else 'absent'}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
