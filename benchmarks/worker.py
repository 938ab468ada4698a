"""Child process of one benchmark run; ``run.py`` starts it.

``python3 worker.py PLAN.json`` imports gmrank (found through PYTHONPATH),
times that import, runs the planned workload in a closed loop until the
planned seconds have passed and writes a result JSON.  It judges nothing:
it records each operation's status and a digest of what it produced, and
``run.py`` checks those after the process has ended, so the checks cost the
measured process neither time nor memory.

``python3 worker.py --probe`` only times ``import gmrank.cli``.
"""
from __future__ import annotations

import json
import sys
import time


def _import_gmrank() -> float:
    started = time.perf_counter()
    import gmrank.cli  # noqa: F401
    return time.perf_counter() - started


def _status(call) -> tuple[object, str]:
    try:
        return call(), "ok"
    except SystemExit as exc:           # argparse rejects a command line
        return None, f"exit {exc.code}"
    except Exception as exc:           # one failed operation; the run goes on
        import traceback
        traceback.print_exc()
        return None, f"raised {type(exc).__name__}"


def _peak_rss_mb() -> float:
    """High-water resident set of this process image, in MiB.

    VmHWM belongs to the address space made at exec.  ru_maxrss would not do:
    Linux carries it over from the parent through fork and exec, so a parent
    that generated large inputs would raise it.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _sha(chunks) -> str:
    import hashlib
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def output_digest(out, outputs) -> str:
    """One digest over an operation's output files; ``missing`` if any is absent."""
    files = [out / name for name in outputs]
    if not all(f.is_file() for f in files):
        return "missing"
    return _sha(f.read_bytes() for f in files)


# -- CLI workloads -------------------------------------------------------------

def cli_iteration(main, ops, out) -> tuple[float, list[dict]]:
    done = []
    started = time.perf_counter()
    for op in ops:
        op_started = time.perf_counter()
        code, status = _status(lambda: main(list(op.argv)))
        done.append((status if status != "ok" or code == 0 else f"exit {code}",
                     time.perf_counter() - op_started))
    wall = time.perf_counter() - started
    return wall, [{"name": op.name, "status": status, "wall_s": seconds,
                   "digest": output_digest(out, op.outputs)}
                  for op, (status, seconds) in zip(ops, done)]


def cli_workload(plan: dict):
    """One iteration of a CLI workload, as a function of the iteration index."""
    import shutil
    from pathlib import Path

    import gmrank.cli
    import workloads

    inputs, out, cache = (Path(plan[k]) for k in ("inputs", "out", "cache"))
    ops = workloads.cli_ops(plan["workload"], inputs, out, cache)
    fresh_cache = plan["fresh_cache"]

    def iteration(index: int):
        if fresh_cache:
            shutil.rmtree(cache, ignore_errors=True)
        wall, ops_done = cli_iteration(gmrank.cli.main, ops, out)
        if index == 0 and plan.get("keep_first"):
            shutil.copytree(out, plan["keep_first"], dirs_exist_ok=True)
        return wall, ops_done

    return iteration


# -- library workload ------------------------------------------------------------

def library_iteration(gmrank, n, src, tgt, keep=None) -> tuple[float, list[dict]]:
    """Build -> PageRank -> CheiRank -> rank indices -> 2DRank, each a stage.

    Functions are looked up on the package at call time, so a tracer that
    wraps ``gmrank.pagerank`` sees these calls.
    """
    done: dict = {}
    steps = (
        ("build", lambda: gmrank.DirectedGraph.from_edges(n, src, tgt)),
        ("pagerank", lambda: gmrank.pagerank(done["build"])),
        ("cheirank", lambda: gmrank.cheirank(done["build"])),
        ("order", lambda: (gmrank.rank_indices(done["pagerank"]),
                           gmrank.rank_indices(done["cheirank"]))),
        ("two_d_rank", lambda: gmrank.two_d_rank(*done["order"])),
    )
    statuses = []
    started = time.perf_counter()
    for name, step in steps:
        step_started = time.perf_counter()
        result, status = _status(step)
        if status == "ok":
            done[name] = result
        statuses.append((status, time.perf_counter() - step_started))
    wall = time.perf_counter() - started

    arrays = {}
    if "build" in done:
        g = done["build"]
        arrays["build"] = (g.in_indptr, g.in_sources, g.out_degree)
    for name in ("pagerank", "cheirank"):
        if name in done:
            arrays[name] = (done[name].probabilities,)
    if "order" in done:
        arrays["order"] = tuple(k.ordering for k in done["order"])
    if "two_d_rank" in done:
        arrays["two_d_rank"] = (done["two_d_rank"].ordering, done["two_d_rank"].kprime)
    if keep is not None:
        import numpy as np
        np.savez(keep, **{f"{stage}_{i}": a for stage, group in arrays.items()
                          for i, a in enumerate(group)})
    return wall, [{"name": stage, "status": status, "wall_s": seconds,
                   "digest": _sha(a.tobytes() for a in arrays.get(stage, ()))
                   if stage in arrays else "missing"}
                  for stage, (status, seconds) in zip((s for s, _ in steps), statuses)]


def library_workload(plan: dict):
    """One iteration of the library workload, as a function of the iteration index."""
    from pathlib import Path

    import numpy as np

    import gmrank

    inputs = Path(plan["inputs"])
    src, tgt = np.load(inputs / "src.npy"), np.load(inputs / "tgt.npy")
    n = int(json.loads((inputs / "sizes.json").read_text())["stated"]["nodes"])

    def iteration(index: int):
        return library_iteration(gmrank, n, src, tgt,
                                 plan.get("keep_first") if index == 0 else None)

    return iteration


# -- loop --------------------------------------------------------------------------

def measure(plan: dict, iteration) -> list[dict]:
    """Runs ``iteration`` in a closed loop for the planned seconds.

    With tracing, untraced and traced iterations alternate; the untraced ones
    give the wall time the traced ones are compared with.
    """
    tracer = None
    if plan["trace"]:
        import spans
        tracer = spans.Tracer()
    iterations: list[dict] = []
    deadline = time.perf_counter() + plan["seconds"]
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, ops = iteration(index)
        finally:
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "wall_s": wall, "ops": ops,
                  "peak_rss_mb": _peak_rss_mb()}
        if traced:
            recorded = tracer.take()
            record["layers"], record["bases"] = spans.layer_metrics(recorded, wall)
            record["spans"] = spans.dump(recorded)
            del recorded
        iterations.append(record)
        index += 1
        kinds = {r["traced"] for r in iterations}
        if (time.perf_counter() >= deadline
                and len(kinds) == (2 if tracer is not None else 1)
                and index >= plan.get("min_iterations", 1)):
            return iterations


def main(argv: list[str]) -> int:
    import_s = _import_gmrank()
    if argv == ["--probe"]:
        print(json.dumps({"import_s": import_s}))
        return 0
    sys.dont_write_bytecode = True
    from pathlib import Path

    plan = json.loads(Path(argv[0]).read_text())
    workload = library_workload if plan["workload"] == "rank-slowmix" else cli_workload
    iterations = measure(plan, workload(plan))
    Path(plan["result"]).write_text(json.dumps(
        {"import_s": import_s, "iterations": iterations,
         "peak_rss_mb": _peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
