"""One measured run of a workload, in a fresh process.

    python3 bench/worker.py --workload calculus --seed 1 --seconds 10 [--setup-runs N] [--spans FILE]

A single closed-loop client sends the seeded request stream, one request
after the previous answer, until the requests have taken ``--seconds``
seconds.  Answer checks run between requests and are not timed.  With
``--setup-runs N`` the client also times N cold CLI calls of the first
request, spread evenly over the run, so that they sample the same
stretch of machine time as the requests.  With ``--spans`` the public
functions are traced and the spans written to FILE.  Prints one JSON
object with the raw latencies and counts.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (the bench directory is the script's own)


CLI = "import sys; sys.path.insert(0, 'src'); from unipjordan.cli import main; " \
      "sys.exit(main(sys.argv[1:]))"
CLI_TIMEOUT_S = 30


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cold_cli(argv: list[str]) -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter until the CLI entry point
    has answered, and what it printed.  Raises if the call fails."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"CLI {argv} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return elapsed, proc.stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-runs", type=int, default=0,
                    help="cold CLI calls to time, spread over the run")
    ap.add_argument("--spans", help="trace the run and write its spans here")
    args = ap.parse_args(argv)

    runner = workloads.Runner()
    tracer = None
    missing: list[str] = []
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        missing = tracer.install()

    stream = workloads.stream(args.workload, args.seed)
    first_argv = next(workloads.stream(args.workload, args.seed)).argv()
    setups: list[float] = []
    cli_texts: set[str] = set()

    def time_setup():
        elapsed, text = cold_cli(first_argv)
        setups.append(elapsed)
        cli_texts.add(text)

    if args.setup_runs:
        cold_cli(first_argv)  # compiles the bytecode cache of a fresh checkout
    latencies: list[float] = []
    kinds: list[str] = []
    errors: list[str] = []
    failed = 0
    busy = 0.0
    first_text = None
    rss_mb = None
    rid = 0
    while busy < args.seconds:
        if len(setups) < args.setup_runs and busy >= len(setups) * args.seconds / args.setup_runs:
            time_setup()
        req = next(stream)
        t0 = time.perf_counter()
        try:
            if tracer:
                out = tracer.request(rid, req.kind, runner.execute, req)
            else:
                out = runner.execute(req)
        except Exception as exc:  # a failed request is counted, not fatal
            dt = time.perf_counter() - t0
            ok = False
            errors.append(f"{' '.join(req.argv())}: {type(exc).__name__}: {exc}")
        else:
            dt = time.perf_counter() - t0
            try:
                ok = workloads.check(req, out)
            except Exception as exc:
                ok = False
                errors.append(f"{' '.join(req.argv())}: check raised "
                              f"{type(exc).__name__}: {exc}")
            else:
                if not ok:
                    errors.append(f"{' '.join(req.argv())}: wrong answer")
            if rid == 0 and ok:
                first_text = runner.cli_text(req, out)
        failed += not ok
        busy += dt
        latencies.append(dt * 1e3)
        kinds.append("jordan+character" if req.kind == "jordan" and req.args[2]
                     else req.kind)
        rid += 1
        if rid == workloads.RSS_AFTER[args.workload]:
            rss_mb = _peak_rss_mb()

    while len(setups) < args.setup_runs:  # a long last request skipped a slot
        time_setup()

    result = {
        "attempted": rid,
        "failed": failed,
        "errors": errors[:5],
        "busy_s": busy,
        "latencies_ms": latencies,
        "kinds": kinds,
        "first_request": first_argv,
        "setup_s": setups,
        "cli_answer_matches": cli_texts <= {first_text},
        "peak_rss_mb": rss_mb or _peak_rss_mb(),
    }
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        import unipjordan.sl2 as sl2
        info = getattr(sl2.tilting_char, "cache_info", None)
        if info:
            ci = info()
            calls = ci.hits + ci.misses
            layers["sl2.tilting_cache_hit_ratio"] = ci.hits / calls if calls else 0.0
            layers["sl2.tilting_cache_entries"] = ci.currsize
        else:
            missing.append("unipjordan.sl2.tilting_char.cache_info")
        tracer.write(args.spans)
        result["layers"] = layers
        result["untraced_functions"] = missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
