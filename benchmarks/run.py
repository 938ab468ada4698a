"""gmrank benchmark: seeded synthetic workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the directory holding ``src/gmrank``)::

    python3 benchmarks/run.py --workload corpus-cold --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15 --trace 0

Per run: generate the workload's inputs from the seed, time the set-up in
fresh processes, run the workload in one fresh single-threaded worker process
for ``--seconds`` seconds, check every output against the benchmark's own
oracles, then print a report and, as the last line, one JSON object.  With
``--trace 0`` the JSON carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced iteration, and the span dump of
that iteration is written under ``.bench_runs/``.  Everything the run writes
stays under ``.bench_runs/`` in the checkout; its inputs are deleted at exit.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "graph.parse_s": "s", "graph.parse_calls": "count",
    "graph.parse_edges_per_s": "edges/s",
    "graph.build_s": "s", "graph.build_calls": "count",
    "graph.build_edges": "count", "graph.reverse_s": "s",
    "rank.pagerank_s": "s", "rank.pagerank_sweeps": "count",
    "rank.cheirank_s": "s", "rank.cheirank_sweeps": "count",
    "rank.ms_per_sweep_per_medge": "ms/sweep/Medge", "rank.order_s": "s",
    "cache.hash_s": "s", "cache.hash_bytes": "bytes", "cache.read_s": "s",
    "cache.write_s": "s", "cache.hits": "count", "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "registry.load_s": "s", "registry.load_calls": "count",
    "registry.select_s": "s", "registry.match_ratio": "ratio",
    "aggregate.global_ranking_s": "s", "aggregate.global_ranking_calls": "count",
    "aggregate.tables_s": "s",
    "cultures.network_s": "s", "cultures.rank_s": "s",
    "tableio.write_s": "s", "tableio.bytes_written": "bytes",
    "tableio.read_toplists_s": "s",
    "cli.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}

SETUP_PROBES = 5           # fresh processes timing `import gmrank.cli`
WARM_PRIMES = 3            # fresh processes filling the cache for corpus-warm
MIN_ITERATIONS = 3
RUN_LIMIT_S = 170          # the whole run, set-up and checks included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The run could not measure anything: no result is printed."""


class Children:
    """Starts worker processes one at a time, each bounded by the run's deadline."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work, self.deadline = work, deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env["PYTHONHASHSEED"] = "0"
        self.env.update({var: "1" for var in THREAD_VARS})
        self.count = 0

    def _run(self, args: list[str]) -> str:
        self.count += 1
        log = self.work / f"worker-{self.count}.log"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError(f"run exceeded {RUN_LIMIT_S} s")
        with open(log, "w") as stderr:
            try:
                done = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "worker.py"), *args],
                    env=self.env, stdout=subprocess.PIPE, stderr=stderr,
                    text=True, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchmarkError(f"worker killed after {timeout:.0f} s") from None
        if done.returncode != 0:
            tail = log.read_text(errors="replace").splitlines()[-15:]
            raise BenchmarkError(f"worker exited {done.returncode}:\n" + "\n".join(tail))
        return done.stdout

    def probe(self) -> float:
        return json.loads(self._run(["--probe"]))["import_s"]

    def measure(self, plan: dict) -> dict:
        plan_path = self.work / f"plan-{self.count + 1}.json"
        plan["result"] = str(self.work / f"result-{self.count + 1}.json")
        plan_path.write_text(json.dumps(plan))
        self._run([str(plan_path)])
        return json.loads(Path(plan["result"]).read_text())


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: dict[str, set[str]] = {}

    def judge(self, iterations: list[dict], reference: dict[str, str],
              problems: dict[str, list[str]]) -> None:
        """An op fails on a bad status, output unlike the reference, or a check."""
        for iteration in iterations:
            for op in iteration["ops"]:
                self.attempted += 1
                reasons = []
                if op["status"] != "ok":
                    reasons.append(op["status"])
                elif op["digest"] != reference.get(op["name"]):
                    reasons.append("output differs from the reference output")
                else:
                    reasons.extend(problems.get(op["name"], ()))
                if reasons:
                    self.failed += 1
                    self.problems.setdefault(op["name"], set()).update(reasons)


def _digests(iteration: dict) -> dict[str, str]:
    return {op["name"]: op["digest"] for op in iteration["ops"]}


def op_median_sum(iterations: list[dict]) -> float:
    """Sum over the workload's operations of each one's median time.

    A burst of load on a shared machine slows one operation of one
    iteration; a per-operation median drops it, where a median of whole
    iterations would keep it whenever bursts come once per iteration.
    """
    times: dict[str, list[float]] = {}
    for iteration in iterations:
        for op in iteration["ops"]:
            times.setdefault(op["name"], []).append(op["wall_s"])
    return sum(statistics.median(t) for t in times.values())


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, scale: float) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    runs = root / ".bench_runs"
    work = runs / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        stated = inputs.generate(workload, work / "inputs", seed, scale)
        print(f"{workload} seed {seed}: " + ", ".join(f"{k} {v}" for k, v in stated.items()))
        children = Children(root, work, deadline)
        children.probe()                      # compiles bytecode; not timed
        tally = Tally()
        plan = {"workload": workload, "inputs": str(work / "inputs"),
                "out": str(work / "inputs" / "out"), "cache": str(work / "cache"),
                "seconds": seconds, "trace": trace, "fresh_cache": True,
                "min_iterations": MIN_ITERATIONS, "keep_first": str(work / "first")}

        if workload == "corpus-warm":
            primes = []
            for k in range(1 if trace else WARM_PRIMES):
                primes.append(children.measure({
                    **plan, "out": str(work / f"prime-out-{k}"),
                    "cache": str(work / "cache"), "seconds": 0, "trace": False,
                    "min_iterations": 1, "keep_first": None}))
            setup = [p["import_s"] + p["iterations"][0]["wall_s"] for p in primes]
            reference = _digests(primes[0]["iterations"][0])
            tally.judge([p["iterations"][0] for p in primes], reference, {})
            plan.update(fresh_cache=False, keep_first=None)
        else:
            setup = [children.probe() for _ in range(SETUP_PROBES)]

        result = children.measure(plan)
        iterations = result["iterations"]
        if workload != "corpus-warm":
            reference = _digests(iterations[0])
        problems = judge_outputs(workload, work, stated)
        tally.judge(iterations, reference, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in iterations if not r["traced"]]
    report = {"workload": workload, "seed": seed, "stated": stated,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": {k: sorted(v) for k, v in tally.problems.items()},
              "iterations": len(iterations)}
    if trace:
        traced = sorted((r for r in iterations if r["traced"]), key=lambda r: r["wall_s"])
        middle = traced[(len(traced) - 1) // 2]
        layers = dict(middle["layers"])
        layers["trace.overhead_s"] = op_median_sum(traced) - op_median_sum(untraced)
        dump = runs / f"spans-{workload}-seed{seed}.json"
        dump.write_text(json.dumps({"workload": workload, "seed": seed,
                                    "wall_s": middle["wall_s"], "spans": middle["spans"]}))
        report.update(metrics={name: layers[name] for name in PER_LAYER},
                      bases=middle["bases"], span_dump=str(dump.relative_to(root)),
                      traced_iterations=len(traced))
    else:
        report.update(metrics={"wall_s": op_median_sum(untraced),
                               "peak_rss_mb": result["peak_rss_mb"],
                               "setup_s": statistics.median(setup)},
                      wall_quartiles=_quartiles([r["wall_s"] for r in untraced]),
                      setup_samples=setup)
    return report


def judge_outputs(workload: str, work: Path, stated: dict) -> dict[str, list[str]]:
    """Problems per operation in the first iteration's kept outputs."""
    if workload == "corpus-warm":
        return {}        # its reference is the cold output of the set-up runs
    if workload == "rank-slowmix":
        import numpy as np
        src = np.load(work / "inputs" / "src.npy")
        tgt = np.load(work / "inputs" / "tgt.npy")
        with np.load(work / "first.npz") as arrays:
            arrays = dict(arrays)
        if "pagerank_0" in arrays:
            trapped = np.load(work / "inputs" / "trapped.npy")
            print(f"{workload}: the trapped 2-cycles hold "
                  f"{arrays['pagerank_0'][trapped].sum():.4f} of the PageRank mass")
        return checks.check_library(arrays, src, tgt, stated["nodes"])
    ops = workloads.cli_ops(workload, work / "inputs", work / "out", work / "cache")
    return checks.check_aggregate(work / "first", work / "inputs", ops)


def print_report(report: dict) -> None:
    units = {**END_TO_END, **PER_LAYER}
    for name, value in report["metrics"].items():
        note = ""
        if name == "wall_s":
            q1, q3 = report["wall_quartiles"]
            note = (f"  sum of per-operation medians over {report['iterations']} "
                    f"iterations; iteration quartiles {q1:.4f} .. {q3:.4f}")
        elif name == "setup_s":
            note = f"  median of {len(report['setup_samples'])} fresh processes"
        elif name in report.get("bases", {}):
            note = f"  = {report['bases'][name]}"
        print(f"  {name:32s} {value:14.6g} {units[name]:<14s}{note}")
    rate = report["failed"] / report["attempted"]
    print(f"  {'error_rate':32s} {rate:14.6g} {'ratio':<14s}"
          f"  {report['failed']} of {report['attempted']} operations failed")
    for op, reasons in report["problems"].items():
        print(f"  FAILED {op}: {'; '.join(reasons)}")
    if "span_dump" in report:
        print(f"  spans of the median traced iteration: {report['span_dump']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for quick tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gmrank" / "__init__.py").is_file():
        print(f"error: no src/gmrank under {root}; run from a gmrank checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    try:
        for name in names:
            report = run_workload(root, name, args.seed, args.seconds,
                                  bool(args.trace), args.scale)
            print_report(report)
            reports.append(report)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        print(f"{'workload':20s} " + " ".join(f"{m + ' (' + u + ')':>18s}" for m, u in
              list(END_TO_END.items()) + [("error_rate", "ratio")]))
        for r in reports:
            rate = r["failed"] / r["attempted"]
            values = [r["metrics"].get(m, float("nan")) for m in END_TO_END] + [rate]
            print(f"{r['workload']:20s} " + " ".join(f"{v:18.6g}" for v in values))
        return 0 if all(r["failed"] == 0 for r in reports) else 1

    report = reports[0]
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
