"""Benchmark of unipjordan: one seeded workload per run.

    python3 bench/run.py --workload calculus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-test

Run from the root of a source checkout; nothing needs installing.  The
workloads, their request mix and the metrics are described in
``bench/README.md``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it record the environment and the run's details.

``--trace 0`` reports the end-to-end metrics of one closed-loop run in a
fresh worker process, which also times cold CLI calls spread over the
run.  ``--trace 1`` reports
the per-layer metrics: ``-X importtime`` of the CLI, an untraced and a
traced worker run (their throughput ratio is the tracing overhead), and
the fixed-matrix oracle probe.  Spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import probes  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9  # cold CLI calls per run, spread over the timed window
IMPORT_CLI = "import sys; sys.path.insert(0, 'src'); import unipjordan.cli"
IMPORTTIME_RUNS = 3

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "success_ratio": "1", "peak_rss_mb": "MB"}


# every child process is killed by this time, so that a run ends within 180 s
DEADLINE = time.monotonic() + 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _python(args: list[str]) -> subprocess.CompletedProcess:
    """Run a Python child from the checkout root; it is killed, and the
    run fails, if it is still running at the deadline."""
    timeout = max(DEADLINE - time.monotonic(), 1.0)
    try:
        return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"still running at the deadline: {args[:3]}") from exc


def _json_child(args: list[str]) -> dict:
    proc = _python(args)
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker(workload: str, seed: int, seconds: float, spans: Path | None = None,
           setup_runs: int = 0) -> dict:
    args = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--setup-runs", str(setup_runs)]
    if spans:
        args += ["--spans", str(spans)]
    return _json_child(args)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(args) -> tuple[dict, dict]:
    run = worker(args.workload, args.seed, args.seconds, setup_runs=SETUP_RUNS)
    lat = run["latencies_ms"]
    value = p90(lat)
    metrics = {
        "setup_s": statistics.median(run["setup_s"]),
        "ops_per_s": _ops(run),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": value,
        "success_ratio": (run["attempted"] - run["failed"]) / run["attempted"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    details = {
        "first_request": run["first_request"],
        "setup_runs_s": run["setup_s"],
        "cli_answer_matches": run["cli_answer_matches"],
        "samples": len(lat),
        "samples_above_p90": sum(x > value for x in lat),
        "request_mix": dict(collections.Counter(run["kinds"])),
        "errors": run["errors"],
    }
    correct = run["cli_answer_matches"] and run["failed"] == 0
    return {"correct": correct, "attempted": run["attempted"], "failed": run["failed"]}, {
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "details": details}


def _ops(run: dict) -> float:
    """Requests answered correctly per second of request time."""
    return (run["attempted"] - run["failed"]) / run["busy_s"]


def _kind_p50(run: dict, kind: str) -> float:
    lat = [x for x, k in zip(run["latencies_ms"], run["kinds"]) if k == kind]
    return statistics.median(lat) if lat else 0.0


PER_LAYER_UNITS = {
    "import.numpy_ms": "ms", "import.scipy_ms": "ms", "import.unipjordan_ms": "ms",
    "expr.parse_ms": "ms", "expr.parse_calls": "count",
    "sl2.eval_ms": "ms", "sl2.eval_calls": "count",
    "sl2.tilting_cache_hit_ratio": "1", "sl2.tilting_cache_entries": "count",
    "characters.ms": "ms", "characters.tensor_calls": "count",
    "characters.weights_built": "count", "characters.support_max": "count",
    "request.jordan_p50_ms": "ms", "request.character_p50_ms": "ms",
    "oracle.build_ms": "ms", "oracle.rank_ms": "ms", "oracle.rank_calls": "count",
    "oracle.levels": "count", "oracle.n_max": "count", "oracle.rank_share": "1",
    "oracle.nominal_gflops": "GFLOP/s",
    **{f"oracle.probe.{name}.{what}": "s" for name in probes.PROBE_MATRICES
       for what in ("rank_sequence_s", "rank_mod_p_s")},
    "classtables.load_ms": "ms", "classtables.identify_ms": "ms",
    "extclassify.ms": "ms", "rootdata.ms": "ms", "distinguished.ms": "ms",
    "trace.overhead_ratio": "1",
}


def per_layer(args) -> tuple[dict, dict]:
    imports = [probes.parse_importtime(_python(["-X", "importtime", "-c", IMPORT_CLI]).stderr)
               for _ in range(IMPORTTIME_RUNS)]
    plain = worker(args.workload, args.seed, args.seconds)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    traced = worker(args.workload, args.seed, args.seconds, spans)
    probe = _json_child([str(BENCH / "probes.py"), "matrices"])

    values = {f"import.{k}_ms": statistics.median(i[k] for i in imports)
              for k in ("numpy", "scipy", "unipjordan")}
    values.update(traced["layers"])
    values["request.jordan_p50_ms"] = _kind_p50(plain, "jordan")
    values["request.character_p50_ms"] = _kind_p50(plain, "jordan+character")
    for name, t in probe["timings"].items():
        values[f"oracle.probe.{name}.rank_sequence_s"] = t["rank_sequence_s"]
        values[f"oracle.probe.{name}.rank_mod_p_s"] = t["rank_mod_p_s"]
    values["trace.overhead_ratio"] = _ops(traced) / _ops(plain)

    # a layer the workload never calls reads 0; the details line lists it
    for name in PER_LAYER_UNITS:
        values.setdefault(name, 0.0)
    at_zero = sorted(name for name in PER_LAYER_UNITS if values[name] == 0)
    details = {
        "spans_file": str(spans.relative_to(ROOT)),
        "untraced_functions": traced["untraced_functions"],
        "metrics_at_0": at_zero,
        "probe_ranks": {k: v["ranks"] for k, v in probe["timings"].items()},
        "traced_samples": traced["attempted"],
        "untraced_samples": plain["attempted"],
        "errors": plain["errors"] + traced["errors"] + probe["errors"],
    }
    correct = plain["failed"] == 0 and traced["failed"] == 0 and probe["ok"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return {"correct": correct, "attempted": attempted, "failed": failed}, {
        "metrics": {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()},
        "details": details}


def self_test() -> int:
    """The same seed gives an identical request stream, another seed a
    different one, for every workload."""
    def head(workload, seed, n=300):
        it = workloads.stream(workload, seed)
        return [next(it) for _ in range(n)]

    bad = []
    for w in workloads.WORKLOADS:
        if head(w, 1) != head(w, 1):
            bad.append(f"{w}: seed 1 gave two different streams")
        if head(w, 1) == head(w, 2):
            bad.append(f"{w}: seeds 1 and 2 gave the same stream")
    for line in bad:
        print(line, file=sys.stderr)
    print("self-test", "failed" if bad else "passed")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    if not (ROOT / "src" / "unipjordan" / "__init__.py").is_file():
        print(f"error: no unipjordan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        env = _json_child([str(BENCH / "probes.py"), "env"])
        print(json.dumps({"env": env}))
        if args.trace:
            status, report = per_layer(args)
        else:
            status, report = end_to_end(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, **report["details"]}))
    for err in report["details"]["errors"]:
        print(f"request error: {err}", file=sys.stderr)
    print(json.dumps({"correct": status["correct"], "attempted": status["attempted"],
                      "failed": status["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
