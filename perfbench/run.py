"""Benchmark for nsfd: three seeded workloads, end-to-end metrics, and a
traced run that gives per-layer metrics.

    python3 perfbench/run.py --workload rates --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --smoke

Run from anywhere; the package is imported from ``src/`` next to this
directory, with numpy/BLAS pinned to one thread. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``attempted``/``failed`` count correctness
checks. Everything the run leaves behind goes to ``.bench_out/``.

Untraced (``--trace 0``): every repetition of the workload runs in a fresh
interpreter, so no process-wide cache carries over between repetitions.
There are at least three repetitions, and more while the next one is
expected to end within ``--seconds``. ``setup_s`` is the median over at
least seven fresh
interpreters of ``import nsfd`` plus building the scheme and system
registries.

Traced (``--trace 1``): runs the named workload once untraced, then all
three bodies traced in this process, then the layer replays, and reports
every per-layer metric; ``trace.overhead_s`` is traced minus untraced wall
time of the named workload. Spans are written to
``.bench_out/trace-<workload>-seed<seed>.json`` at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("rates", "certify", "systems")
THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                      "NUMEXPR_NUM_THREADS")}
MIN_SETUP_SAMPLES = 7
#: a median over three repetitions shrugs off one slowed by a neighbour's burst
MIN_REPS = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "state_steps_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def _setup_registry() -> tuple[float, float]:
    """(import_s, registry_s) of ``import nsfd`` and building every scheme
    bundle and both systems; meaningful in a fresh interpreter only."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import nsfd  # noqa: F401
    t1 = time.perf_counter()
    from nsfd.problems import problem_names, scheme_bundles
    from nsfd.systems import get_system
    for pname in problem_names():
        scheme_bundles(pname)
    for sname in ("lv", "sirs"):
        get_system(sname)
    return t1 - t0, time.perf_counter() - t1


def run_child(name: str, seed: int, smoke: bool) -> dict:
    """One fresh-interpreter sample: set-up, then one untraced repetition of
    workload ``name`` (or nothing more for ``name == "setup"``)."""
    import_s, registry_s = _setup_registry()
    out = {"import_s": import_s, "registry_s": registry_s}
    if name != "setup":
        import workloads
        workdir = OUT / f"work-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            ctx = workloads.Context(seed=seed, smoke=smoke, outdir=workdir)
            t0 = time.perf_counter()
            work = workloads.BODIES[name](ctx)
            out["wall_s"] = time.perf_counter() - t0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        out.update(state_steps=work.state_steps, step_s=work.seconds, checks=ctx.checks)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _spawn(name: str, seed: int, smoke: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {name!r} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_samples(samples: list[dict], seed: int, smoke: bool) -> list[dict]:
    samples = list(samples)
    while len(samples) < MIN_SETUP_SAMPLES:
        samples.append(_spawn("setup", seed, smoke))
    return samples


def untraced(workload: str, seed: int, seconds: float, smoke: bool):
    """At least ``MIN_REPS`` repetitions (one in smoke mode) in fresh
    interpreters, more while the next is expected to end within
    ``seconds``; returns (metrics, checks, info)."""
    reps = []
    min_reps = 1 if smoke else MIN_REPS
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(_spawn(workload, seed, smoke))
        took = time.perf_counter() - t0
        if len(reps) >= min_reps and time.perf_counter() - start + took > seconds:
            break
    setups = _setup_samples(reps, seed, smoke)
    metrics = {
        "setup_s": statistics.median(s["import_s"] + s["registry_s"] for s in setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "state_steps_per_s": statistics.median(r["state_steps"] / r["step_s"] for r in reps),
        "peak_rss_mb": max(r["rss_mb"] for r in reps),
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    checks = [c for r in reps for c in r["checks"]]
    info = {"reps": len(reps), "rep_wall_s": [r["wall_s"] for r in reps],
            "setup_samples_s": [s["import_s"] + s["registry_s"] for s in setups]}
    return metrics, checks, info


def traced(workload: str, seed: int, smoke: bool):
    """All three bodies traced in this process plus the layer replays;
    returns (metrics, checks, info)."""
    setups = _setup_samples([], seed, smoke)
    baseline = _spawn(workload, seed, smoke)
    _setup_registry()  # nothing in this process has called an oracle yet
    import spans
    import workloads
    tracer = spans.Tracer()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(seed=seed, smoke=smoke, outdir=workdir, tracer=tracer)
    walls = {}
    try:
        for name in WORKLOADS:  # rates first: its oracle cache must start cold
            t0 = time.perf_counter()
            with tracer.span(f"workload.{name}"):
                workloads.BODIES[name](ctx)
            walls[name] = time.perf_counter() - t0
        metrics = workloads.layer_metrics(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["problems.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    metrics["problems.registry_s"] = (statistics.median(s["registry_s"] for s in setups), "s")
    metrics["trace.overhead_s"] = (walls[workload] - baseline["wall_s"], "s")
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.write(trace_path)
    info = {"traced_wall_s": walls, "untraced_wall_s": baseline["wall_s"],
            "step_spans": len(tracer.durations_ns("schemes.update")),
            "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, baseline["checks"] + ctx.checks, info


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nsfd").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _why(workload: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next((w["why"] for w in spec["workloads"] if w["name"] == workload), "")


def provenance(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "why": _why(workload),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    metrics, checks, info = (traced(workload, seed, smoke) if trace
                             else untraced(workload, seed, seconds, smoke))
    failed = sum(1 for _, ok in checks if not ok)
    return {
        "result": {
            "correct": failed == 0, "attempted": len(checks), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "provenance": provenance(workload, seed, seconds, trace, smoke),
        "info": info,
        "checks": checks,
    }


def _summary(record: dict) -> list[str]:
    res, prov = record["result"], record["provenance"]
    lines = [f"{prov['workload']} (seed {prov['seed']}, trace {prov['trace']}): {prov['why']}"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    frac = res["failed"] / res["attempted"]
    lines.append(f"  {'check_fail_frac':<40} {frac:>16.6g} ratio "
                 f"({res['failed']}/{res['attempted']})")
    lines += [f"  FAILED {name}" for name, ok in record["checks"] if not ok]
    return lines


def _write_record(record: dict) -> None:
    prov = record["provenance"]
    path = OUT / f"result-{prov['workload']}-seed{prov['seed']}-trace{prov['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def smoke(seed: int) -> int:
    """Every workload at minimal length: both trace modes emit exactly the
    metrics BENCHMARK.json names, with their units; a second seed gives the
    same pass/fail outcomes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        outcomes = {}
        for run_seed, trace in ((seed, 0), (seed + 1, 0), (seed, 1)):
            record = measure(workload, run_seed, 0.0, trace, smoke=True)
            print("\n".join(_summary(record)))
            res = record["result"]
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want[trace]))}"
                                f" missing/extra or units differ")
            if not all(math.isfinite(m["value"]) for m in res["metrics"].values()):
                problems.append(f"{workload} trace {trace}: non-finite metric")
            if not res["correct"]:
                problems.append(f"{workload} seed {run_seed} trace {trace}: {res['failed']} checks failed")
            if trace == 0:
                outcomes[run_seed] = record["checks"]
        if outcomes[seed] != outcomes[seed + 1]:
            problems.append(f"{workload}: seeds {seed} and {seed + 1} differ in pass/fail outcomes")
    for p in problems:
        print(f"SMOKE FAIL: {p}")
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal length; without --workload, check every workload's metrics")
    parser.add_argument("--child", choices=WORKLOADS + ("setup",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nsfd" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'nsfd'}; run inside a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before numpy is imported here or in a child
    OUT.mkdir(exist_ok=True)

    if args.child:
        print(json.dumps(run_child(args.child, args.seed, args.smoke)))
        return 0
    if args.smoke and args.workload is None:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [measure(w, args.seed, args.seconds, args.trace, args.smoke) for w in names]
    for record in records:
        _write_record(record)
        print("\n".join(_summary(record)))
        print("provenance " + json.dumps(record["provenance"]))
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        results = [r["result"] for r in records]
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": m for w, r in zip(names, results) for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
