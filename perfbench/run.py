"""tenrank benchmark runner.

    python3 perfbench/run.py --workload {dense,sweep,enum,battery} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  It imports tenrank from ``src/`` and
exits with code 2 when that is missing.  With ``--trace 0`` it measures the
end-to-end metrics with nothing wrapped; with ``--trace 1`` it runs some
passes plain, then installs the span wrappers and reports the per-layer
metrics and the tracing overhead.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPS = 11
MIN_PASSES = 3
TAIL_BEYOND = 10  # job_tail_s: highest percentile with this many samples above it
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import tenrank.cli; "
    "print(time.perf_counter() - t)"
)
# What the installed `tenrank` console script runs, plus a record of the
# job's own peak RSS (VmHWM) at exit.  wait4's ru_maxrss is no use here: a
# child inherits the runner's high-water mark when it is forked.
PEAK_ENV = "PERFBENCH_PEAK_OUT"
CLI_ENTRY = f"""import atexit, os, sys
def record_peak():
    for line in open("/proc/self/status"):
        if line.startswith("VmHWM:"):
            open(os.environ["{PEAK_ENV}"], "w").write(line.split()[1])
atexit.register(record_peak)
from tenrank.cli import main
sys.exit(main())
"""

SPEC_PATH = ROOT / "BENCHMARK.json"  # metric names and units


@dataclass
class PassResult:
    wall: float
    names: list[str]
    latencies: list[float]
    rss_kb: list[int]
    attempted: int
    failed: set[str]
    values: dict
    layers: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import tenrank.cli."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip())


def run_cli(argv, pass_dir: Path, name: str, spans_path: Path | None):
    """Run one CLI job to completion; returns its outcome with its peak RSS."""
    from workloads import CliOutcome

    if spans_path is None:
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    else:
        cmd = [sys.executable, str(BENCH / "launch.py"), str(spans_path), *argv]
    out_path, err_path = pass_dir / f"{name}.stdout", pass_dir / f"{name}.stderr"
    peak_path = pass_dir / f"{name}.peak"
    env = child_env()
    env[PEAK_ENV] = str(peak_path)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        returncode = subprocess.run(cmd, stdout=out, stderr=err, env=env, cwd=pass_dir).returncode
    return CliOutcome(
        returncode,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
        int(peak_path.read_text()) if peak_path.exists() else 0,  # none from traced jobs
    )


class Runner:
    def __init__(self, workload, run_dir: Path):
        self.wl = workload
        self.run_dir = run_dir
        self.tracer = None  # set once the wrappers are installed; passes are traced from then on
        self.first_values: dict | None = None
        self.errors: list[str] = []
        self.spans_dir = WORK / "spans" / workload.name
        self.pass_index = 0

    def run_pass(self) -> PassResult:
        k = self.pass_index
        self.pass_index += 1
        pass_dir = self.run_dir / f"pass{k}"
        pass_dir.mkdir()
        jobs = self.wl.jobs(pass_dir)
        results, latencies = {}, []
        spans_files = {}
        tracer = self.tracer
        begin, counts_before = 0, Counter()
        if tracer is not None and not self.wl.cli:
            begin, counts_before = len(tracer), Counter(tracer.counts)
            tracer.active = True
        start = time.perf_counter()
        for job in jobs:
            t0 = time.perf_counter()
            if job.argv is not None:
                spans = pass_dir / f"{job.name}.spans.npz" if tracer is not None else None
                results[job.name] = run_cli(job.argv, pass_dir, job.name, spans)
                spans_files[job.name] = spans
            else:
                try:
                    results[job.name] = job.call(results)
                except Exception as exc:  # a failed job is data: it counts in `failed`
                    results[job.name] = exc
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        rss = [o.max_rss_kb for o in results.values()] if self.wl.cli else []
        result = PassResult(wall, [job.name for job in jobs], latencies, rss, len(jobs), set(), {})
        if tracer is not None:
            self._collect_layers(result, spans_files, begin, counts_before)
        self._verify(jobs, results, result)
        shutil.rmtree(pass_dir)
        return result

    def _collect_layers(self, result, spans_files, begin, counts_before):
        import tracing

        if self.wl.cli:
            parts = []
            for name, path in spans_files.items():
                if path is not None and path.exists():
                    summary, counts = tracing.load(path)
                    parts.append(summary)
                    result.counts.update(counts)
                    shutil.move(str(path), self.spans_dir / f"pass{self.pass_index - 1}-{name}.npz")
            summary = tracing.merge_summaries(parts)
        else:
            self.tracer.active = False
            summary = tracing.summarize(self.tracer.arrays(begin))
            result.counts = self.tracer.counts - counts_before
        result.layers = tracing.layer_metrics(summary, result.counts)

    def _verify(self, jobs, results, result: PassResult) -> None:
        values = {}
        for job in jobs:
            outcome = results[job.name]
            try:
                if isinstance(outcome, Exception):
                    raise outcome
                if job.argv is not None:
                    if outcome.returncode != 0:
                        raise RuntimeError(f"exit {outcome.returncode}: {outcome.stderr.strip()[-300:]}")
                ok, value = job.check(outcome)
            except Exception as exc:  # reported, and the job counts as failed
                ok, value = False, None
                self.errors.append(f"{job.name}: {type(exc).__name__}: {exc}")
            values[job.name] = value
            if not ok:
                result.failed.add(job.name)
        result.failed |= self.wl.cross_check(values, self.first_values)
        if self.first_values is None:
            self.first_values = values
        result.values = values


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(0, n - 1 - TAIL_BEYOND)
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def environment() -> dict:
    import numpy

    info = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": _dist_version("scipy"),
        "blas": _blas_info(),
        "git_sha": _git_sha(),
        "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
    }
    return info


def _dist_version(name: str) -> str | None:
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def _blas_info() -> dict:
    import ctypes
    import glob

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        info = {}
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_sha() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def pass_count(seconds: float, nominal: float) -> int:
    """A fixed pass count per (workload, --seconds), so every run pools the
    same number of job samples and the tail percentile stays put."""
    return max(MIN_PASSES, round(seconds / nominal))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("dense", "sweep", "enum", "battery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full", help="toy: smoke-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "tenrank" / "cli.py").is_file():
        print(f"error: tenrank sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tenrank

    if Path(tenrank.__file__).resolve().parent != (SRC / "tenrank").resolve():
        print(f"error: imported tenrank from {tenrank.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        return measure(args, wl, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def set_up(wl, run_dir: Path, rep: int) -> tuple[float, float]:
    """One set-up: a fresh interpreter's import plus input generation and
    writing.  Returns (set-up seconds, import seconds)."""
    shutil.rmtree(run_dir / f"inputs{rep - 1}", ignore_errors=True)
    inputs = run_dir / f"inputs{rep}"
    inputs.mkdir()
    t0 = time.perf_counter()
    import_s = fresh_import_s()
    wl.make_inputs(inputs)
    return time.perf_counter() - t0, import_s


def measure(args, wl, run_dir: Path) -> int:
    env = environment()
    setup_times, import_times = zip(*(set_up(wl, run_dir, rep) for rep in range(SETUP_REPS)))
    wl.prepare_reference()
    scale = 1.0 if args.scale == "full" else 0.05
    n = pass_count(args.seconds, wl.nominal_pass_s * scale)
    runner = Runner(wl, run_dir)
    if args.trace:
        passes, metrics = traced_run(runner, n, import_times)
    else:
        passes = [runner.run_pass() for _ in range(n)]
        metrics = end_to_end(wl, passes, setup_times)

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    for p in passes:
        for name in sorted(p.failed):
            print(f"failed: job {name}", file=sys.stderr)
    for line in runner.errors[:20]:
        print(f"error: {line}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name}: seed {args.seed}, {len(passes)} passes, "
          f"{passes[0].attempted} jobs per pass, closed loop with one client")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"fail_ratio = {failed / attempted:.6g} 1 ({failed} of {attempted} jobs)")
        errors = [e for p in passes for e in wl.fit_errors(p.values)]
        if errors:
            print(f"fit_error = {statistics.fmean(errors):.9g} 1 (mean of {len(errors)} fits)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def end_to_end(wl, passes, setup_times) -> dict:
    lat = [x for p in passes for x in p.latencies]
    tail_value, tail_pct, beyond = tail(lat)
    if wl.cli:
        peak_kb = max(kb for p in passes for kb in p.rss_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail_value,
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    print(f"job_tail_s is p{tail_pct:.1f} of {len(lat)} job samples ({beyond} beyond it)")
    by_kind: dict = {}
    for p in passes:
        for name, x in zip(p.names, p.latencies):
            by_kind.setdefault(name.rstrip("0123456789").rstrip("_"), []).append(x)
    print("job medians: " + ", ".join(
        f"{kind} {statistics.median(xs):.4g} s x{len(xs)}" for kind, xs in by_kind.items()))
    return named(values, "end_to_end")


def named(values: dict, group: str) -> dict:
    """The metrics BENCHMARK.json lists under ``group``, with their units."""
    spec = json.loads(SPEC_PATH.read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}


def traced_run(runner: Runner, n: int, import_times) -> tuple[list, dict]:
    """Plain passes, then the wrappers, one traced input generation and at
    least two traced passes; per-layer metrics are medians over those."""
    import tracing

    plain = [runner.run_pass() for _ in range(max(1, n // 2))]
    tracer = runner.tracer = tracing.Tracer()
    tracing.install(tracer)
    shutil.rmtree(runner.spans_dir, ignore_errors=True)
    runner.spans_dir.mkdir(parents=True)
    inputs = runner.run_dir / "inputs-traced"
    inputs.mkdir()
    tracer.active = True
    runner.wl.make_inputs(inputs)
    tracer.active = False
    gen_setup = tracing.summarize(tracer.arrays()).get("generators", (0, 0.0, 0.0))[1]
    traced = [runner.run_pass() for _ in range(max(2, n - len(plain)))]
    tracer.dump(runner.spans_dir / "runner.npz")

    plain_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    layers = {name: statistics.median(p.layers[name] for p in traced) for name in traced[0].layers}
    layers["generators.setup_s"] = gen_setup
    layers["cli.import_s"] = statistics.median(import_times)
    layers["trace.overhead_s"] = traced_wall - plain_wall
    print(f"tracing overhead: traced wall_s {traced_wall:.4f} s - untraced wall_s {plain_wall:.4f} s")
    return plain + traced, named(layers, "per_layer")


if __name__ == "__main__":
    sys.exit(main())
