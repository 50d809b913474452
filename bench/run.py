"""End-to-end benchmark of the pcgeom command-line tool.

Usage (from the root of a checkout):

    python3 bench/run.py --workload triad-scan|descent|geometry|all \\
        --seed N --seconds S --trace 0|1

Each request is a fresh ``python -m pcgeom ...`` process that imports
pcgeom from the checkout's ``src``, sent by one client in a closed loop:
the next request starts when the previous one has exited. A pass sends
the workload's whole request list once; passes repeat for about
``--seconds`` seconds and every output is checked by ``oracle.py`` after
its pass, outside the timed region.

Times are scaled to a reference machine speed by a calibration sample
taken around each child process (see ``calibrate``).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics:
``wall_s``: time to finish the request list once, the sum over requests
of each one's median latency across the passes;
``peak_rss_mb``: largest child ``ru_maxrss``;
``setup_s``: median time of a no-op ``python -m pcgeom --version``;
``ok_ratio``: requests whose output was correct / requests sent.
With ``--trace 1`` untraced and traced passes alternate; traced requests
go through ``launcher.py`` and the last line carries the per-layer
metrics instead. The line before it is a JSON object with provenance,
input sizes, the request lists and the raw latencies and samples.

Exits 2 without a result when the checkout holds no ``src/pcgeom``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from time import perf_counter

import numpy as np

import launcher
import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: No-op invocations timed before each untraced pass, so that setup samples
#: spread over the run; setup_s is their median.
SETUP_RUNS_PER_PASS = 2
#: Child processes run single-threaded BLAS: on a small shared machine
#: threaded BLAS mostly adds scheduling noise.
BLAS_THREADS = "1"
#: Median ``calibrate()`` time on the reference machine (2 shared vCPUs).
CAL_REF_S = 0.02

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
              "ok_ratio": "1"}


def calibrate() -> float:
    """Time a fixed mix of work like a request's, with no pcgeom code.

    Building a dict and a list over combinations, then gathering with
    numpy. Shared machines slow down by up to ~1.6x for minutes at a
    time, which no median within a 30 s run can remove; samples taken on
    either side of each child measure that slowdown where the child ran,
    and its time is scaled by CAL_REF_S / sample. Scaling cut the spread
    of wall_s over seeds about threefold on the reference machine.
    """
    start = perf_counter()
    pos = {p: i for i, p in enumerate(combinations(range(80), 2))}
    ij = np.array([pos[(i, j)] for i, j, k in combinations(range(80), 3)])
    weights = np.arange(ij.size, dtype=float)
    for _ in range(20):
        np.bincount(ij, weights=weights, minlength=len(pos))
    return perf_counter() - start


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PCGEOM_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


def launch(argv: list[str], cwd: Path, env: dict, log_stem: Path) -> dict:
    """Run one child to completion; wall time includes process start."""
    with open(f"{log_stem}.stdout", "w") as out, open(f"{log_stem}.stderr", "w") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode}


def scaled_latencies(record: dict) -> list[float]:
    """Request latencies at reference speed.

    ``cal_s`` holds one calibration sample before the first request and
    one after each; request i is scaled by the mean of the samples on
    either side of it.
    """
    cal = record["cal_s"]
    return [wall * 2 * CAL_REF_S / (before + after)
            for wall, before, after in zip(record["latency_s"], cal, cal[1:])]


def list_time(passes: list[dict]) -> float:
    """Time to finish the request list once: the sum over requests of each
    request's median scaled latency across the passes."""
    per_pass = [scaled_latencies(p) for p in passes]
    return sum(statistics.median(column) for column in zip(*per_pass))


class Workload:
    """Generated inputs, their references and the passes run over them."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.env = child_env()
        self.requests, self.sizes = workloads.build(name, seed, workdir)
        self.expected = [oracle.expect(r, workdir) for r in self.requests]
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        #: (wall, mean calibration sample around it) of each no-op invocation
        self.setup: list[tuple[float, float]] = []

    def measure_setup(self) -> None:
        before = calibrate()
        for i in range(SETUP_RUNS_PER_PASS):
            stem = self.workdir / f"setup{i}"
            result = launch(["-m", "pcgeom", "--version"], self.workdir,
                            self.env, stem)
            banner = Path(f"{stem}.stdout").read_text()
            if result["exit"] != 0 or not banner.startswith("pcgeom "):
                raise RuntimeError(f"pcgeom --version failed: {banner!r}")
            after = calibrate()
            self.setup.append((result["wall_s"], (before + after) / 2))
            before = after

    def run_pass(self, traced: bool) -> dict:
        """Send every request once, with a calibration sample before the
        first and after each.

        Returns the latencies, the samples and, when traced, the per-layer
        totals. Outputs are checked after the last request.
        """
        results, cal = [], [calibrate()]
        for req in self.requests:
            stem = self.workdir / "out" / req.label
            if traced:
                argv = [str(BENCH / "launcher.py"), f"{stem}.spans", *req.argv]
            else:
                argv = ["-m", "pcgeom", *req.argv]
            results.append(launch(argv, self.workdir, self.env, stem))
            cal.append(calibrate())
        docs = []
        for req, exp, result in zip(self.requests, self.expected, results):
            stem = self.workdir / "out" / req.label
            problems = oracle.verify(
                req, exp, self.workdir, result["exit"],
                Path(f"{stem}.stdout").read_text(),
                Path(f"{stem}.stderr").read_text())
            self.attempted += 1
            if problems:
                self.failures.append(f"{req.label}: {'; '.join(problems)}")
            self.peak_rss_mb = max(self.peak_rss_mb, result["rss_mb"])
            if traced:
                docs.append(json.loads(Path(f"{stem}.spans").read_text()))
        record = {"latency_s": [r["wall_s"] for r in results], "cal_s": cal}
        if traced:
            record["layers"] = launcher.summarize(docs)
        return record

    def io_bytes(self) -> tuple[int, int]:
        """Bytes of input files read and of reports written in one pass."""
        size = {s["file"]: s["bytes"] for s in self.sizes}
        bytes_in = sum(size[a] for r in self.requests for a in r.argv if a in size)
        bytes_out = sum((self.workdir / r.output).stat().st_size
                        for r in self.requests)
        return bytes_in, bytes_out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".bench_run" / f"{name}-{seed}-{os.getpid()}"
    try:
        work = Workload(name, seed, workdir)
        untraced: list[dict] = []
        traced: list[dict] = []
        start = perf_counter()
        while True:
            round_start = perf_counter()
            if not trace:
                work.measure_setup()
            untraced.append(work.run_pass(traced=False))
            if trace:
                traced.append(work.run_pass(traced=True))
            now = perf_counter()
            if now - start + (now - round_start) > seconds:
                break
        if trace:
            metrics = _layer_metrics(untraced, traced, work.io_bytes())
        else:
            metrics = {
                "wall_s": list_time(untraced),
                "peak_rss_mb": work.peak_rss_mb,
                "setup_s": statistics.median(
                    wall * CAL_REF_S / cal for wall, cal in work.setup),
                "ok_ratio": 1.0 - len(work.failures) / work.attempted,
            }
        return {
            "workload": name,
            "attempted": work.attempted,
            "failures": work.failures,
            "metrics": metrics,
            "sizes": work.sizes,
            "requests": [{"label": r.label, "argv": list(r.argv)}
                         for r in work.requests],
            "passes": [{"latency_s": p["latency_s"], "cal_s": p["cal_s"]}
                       for p in untraced],
            "traced_passes": [{"latency_s": p["latency_s"], "cal_s": p["cal_s"]}
                              for p in traced],
            "setup": work.setup,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_metrics(untraced: list[dict], traced: list[dict],
                   io_bytes: tuple[int, int]) -> dict:
    """Median over traced passes of each per-layer total."""
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in launcher.LAYER_METRICS}
    out["io.bytes_in"], out["io.bytes_out"] = io_bytes
    out["trace.overhead_s"] = list_time(traced) - list_time(untraced)
    return out


def provenance(seed: int, cpu: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def _print_metrics(name: str, metrics: dict, units: dict) -> None:
    for metric, value in metrics.items():
        print(f"{name:>10}  {metric:<30} {value:14.6g} {units[metric]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pcgeom" / "__init__.py").is_file():
        print(f"bench: no pcgeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Requests are single-threaded and sent one at a time; pinning the
    # harness and its children to one CPU makes the calibration samples
    # measure the CPU the requests ran on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(launcher.LAYER_METRICS) if args.trace else END_TO_END
    runs = [run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names]
    for run in runs:
        _print_metrics(run["workload"], run["metrics"], units)
        for failure in run["failures"]:
            print(f"{run['workload']:>10}  FAILED {failure}")
    detail = {"provenance": provenance(args.seed, cpu), "runs": runs}
    print(json.dumps(detail))

    # With several workloads each metric name is prefixed by its workload.
    metrics = {}
    for run in runs:
        prefix = f"{run['workload']}." if len(runs) > 1 else ""
        for name, value in run["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(len(r["failures"]) for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
