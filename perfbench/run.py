"""fbcompose benchmark: one command for the apply-stream, train-cold and
eval-warm workloads.

    python3 perfbench/run.py --workload apply-stream --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  With ``--trace 0`` it measures the end-to-end
metrics; with ``--trace 1`` it runs a fixed prefix of the same command
stream untraced and then traced, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import os

# BLAS runs in the calling thread only, so the compute threads are exactly
# the program's pool threads.  This must happen before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True  # leave nothing behind in the checkout

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3  # at least; short set-ups repeat until SETUP_MIN_S has passed
SETUP_MIN_S = 1.0
NPROC = len(os.sched_getaffinity(0))
POOL_THREADS = min(2, NPROC)


def _import_program():
    """Import fbcompose from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "fbcompose" / "__init__.py").is_file():
        raise SystemExit(f"error: no fbcompose sources under {src}")
    sys.path.insert(0, str(src))
    import fbcompose

    if Path(fbcompose.__file__).resolve().parent != (src / "fbcompose").resolve():
        raise SystemExit(f"error: imported fbcompose from {fbcompose.__file__}, not {src}")
    return fbcompose


def _git_sha() -> str:
    """Commit of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "pool_threads": POOL_THREADS,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "note": f"thread scaling above {NPROC} threads cannot be measured on this machine",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_jiffies() -> tuple[int, int]:
    """(stolen, busy) jiffies summed over all CPUs, from /proc/stat; busy is
    everything but idle and iowait, stolen time included."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq + steal


def stolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the busy CPU time between two readings that the hypervisor
    gave to other guests.  Wall times are scaled by 1 minus this share, so
    they count only time this machine actually ran; on a shared host the
    stolen share swings between runs and would otherwise dominate them."""
    busy = after[1] - before[1]
    return (after[0] - before[0]) / busy if busy > 0 else 0.0


def latency_summary(latencies: list[float]) -> tuple[float, float]:
    """(p50, p90); p90 interpolates between order statistics."""
    if len(latencies) == 1:
        return latencies[0], latencies[0]
    return statistics.median(latencies), statistics.quantiles(latencies, n=10, method="inclusive")[8]


def run_pass(workload, session, requests, out: Path, seconds: float | None, tracer=None):
    """Issue requests one at a time.  With ``seconds``, stop before a request
    that would end after that much wall time, judged by the mean wall time
    so far (at least one request always runs).  Returns (latencies net of
    stolen time, images, output bytes per request, stolen share of the
    whole pass)."""
    out.mkdir(parents=True, exist_ok=True)
    latencies, walls, images, outputs = [], [], 0, []
    first = cpu_jiffies()
    start = time.perf_counter()
    for request in requests:
        if walls and seconds is not None:
            if time.perf_counter() - start + sum(walls) / len(walls) > seconds:
                break
        before = cpu_jiffies()
        with tracer.request(request.index) if tracer else contextlib.nullcontext():
            code, elapsed, stdout = session.run(request.argv(out))
        walls.append(elapsed)
        latencies.append(elapsed * (1 - stolen_share(before, cpu_jiffies())))
        outputs.append(workload.check(request, code, stdout, out))
        images += request.images
    return latencies, images, outputs, stolen_share(first, cpu_jiffies())


def timed_setups(workload, work: Path, repeats: int, min_seconds: float) -> tuple[float, int]:
    """Run the workload's set-up in fresh directories, at least ``repeats``
    times and until ``min_seconds`` have passed, and keep the last one;
    returns the median set-up time and the number of set-ups."""
    times = []
    while len(times) < repeats or sum(times) < min_seconds:
        directory = work / f"setup{len(times)}"
        jiffies = cpu_jiffies()
        start = time.perf_counter()
        workload.setup(directory)
        elapsed = time.perf_counter() - start
        times.append(elapsed * (1 - stolen_share(jiffies, cpu_jiffies())))
        if len(times) > 1:
            shutil.rmtree(work / f"setup{len(times) - 2}")
    return statistics.median(times), len(times)


def measure(workload, session, work: Path, seconds: float, tiny: bool) -> dict:
    setup_s, setup_runs = timed_setups(
        workload, work, 1 if tiny else SETUP_REPEATS, 0.0 if tiny else SETUP_MIN_S
    )
    workload.prepare()
    latencies, images, _, stolen = run_pass(workload, session, workload.requests(), work / "out", seconds)
    p50, p90 = latency_summary(latencies)
    quality = workload.quality()
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "images_per_s": images / sum(latencies),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "mean_psnr_db": quality["mean_psnr_db"],
        "mean_ssim": quality["mean_ssim"],
    }
    notes = [
        f"set-up ran {setup_runs} times; setup_s is their median",
        f"{len(latencies)} commands timed; the hypervisor took {stolen:.1%} of busy CPU time, "
        f"which each command's time excludes",
        f"psnr_gain_db = {quality['psnr_gain_db']!r} dB (merged minus best plane; not tracked)",
    ]
    if workload.name == "train-cold":
        notes.append(f"time_to_model_s = latency_p50_s = {p50!r} s")
        notes.append(f"val_psnr_db = {workload.best_val_psnr!r} dB (best validation PSNR recorded by train)")
    return {"metrics": metrics, "notes": notes}


def measure_traced(workload, session, work: Path) -> dict:
    import tracing

    workload.setup(work / "setup")
    workload.prepare()
    requests = list(itertools.islice(workload.requests(), workload.trace_requests))

    untraced = run_pass(workload, session, requests, work / "untraced", None)
    rss_untraced = peak_rss_mb()
    bindings = [
        (module, dict(vars(module))) for name, module in sys.modules.items() if name.startswith("fbcompose")
    ]
    bindings += [(cls, dict(vars(cls))) for cls in tracing.traced_classes()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, session, requests, work / "traced", None, tracer)
    finally:
        tracer.uninstall()
    rss_traced = peak_rss_mb()

    restored = all(
        vars(owner).get(attr) is value for owner, namespace in bindings for attr, value in namespace.items()
    )
    session.check(restored, "tracer left a wrapped binding behind")
    for request, a, b in zip(requests, untraced[2], traced[2]):
        session.check(a == b, f"traced output of request {request.index} differs from untraced")

    metrics = tracing.layer_metrics(tracer)
    workload.check_trace(requests, metrics)

    (u_lat, u_img, _, _), (t_lat, t_img, _, _) = untraced, traced
    u50, u90 = latency_summary(u_lat)
    t50, t90 = latency_summary(t_lat)
    metrics["trace.overhead.latency_p50_s"] = t50 - u50
    metrics["trace.overhead.latency_p90_s"] = t90 - u90
    metrics["trace.overhead.images_per_s"] = t_img / sum(t_lat) - u_img / sum(u_lat)
    metrics["trace.overhead.peak_rss_mb"] = rss_traced - rss_untraced

    spans_path = ROOT / ".perfbench" / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    return {
        "metrics": metrics,
        "notes": [f"{len(requests)} commands per pass; spans written to {spans_path.relative_to(ROOT)}"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args.seed)
    print("env " + json.dumps(env))

    session = workloads.Session(POOL_THREADS)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, session)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = measure_traced(workload, session, work)
        else:
            result = measure(workload, session, work, args.seconds, args.tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise SystemExit(f"error: benchmark produced no value for {missing}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in result["notes"]:
        print("  " + note)
    for name, unit in units.items():
        print(f"  {name} = {result['metrics'][name]!r} {unit}")
    for failure in session.failures:
        print("  FAILED: " + failure)
    correct = session.failed == 0
    print(
        f"  failed {session.failed} of {session.attempted} checked operations "
        f"({session.failed / max(session.attempted, 1):.1%})"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": {
                    name: {"value": float(result["metrics"][name]), "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
