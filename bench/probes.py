"""Environment record, fixed-matrix oracle probe and import-time parsing.

    python3 bench/probes.py env        # JSON record of the environment
    python3 bench/probes.py matrices   # JSON timings of the oracle probe

Each runs in its own process, so the measured workload process never
imports anything for them.
"""

from __future__ import annotations

import ctypes
import importlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (kind, size parameter, p): Pascal(400, p), and the digit-Kronecker
# matrix of L(p^k - 1), the k-fold Kronecker power of Pascal(p - 1, p)
PROBE_MATRICES = {
    "pascal400_p2": ("pascal", 400, 2),
    "pascal400_p3": ("pascal", 400, 3),
    "pascal400_p5": ("pascal", 400, 5),
    "pascal400_p7": ("pascal", 400, 7),
    "kron4096_p2": ("kron", 12, 2),
    "kron3125_p5": ("kron", 5, 5),
    "kron2401_p7": ("kron", 4, 7),
    "kron2187_p3": ("kron", 7, 3),
}


def _blas_threads() -> list[dict]:
    """Threads in effect for each OpenBLAS loaded into this process, read
    through the library's own getter."""
    out = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.split()[-1].lower() and ".so" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out.append({"library": Path(path).name, "threads": fn()})
                break
    return out


def env() -> dict:
    rec: dict = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for mod in ("numpy", "scipy", "numba", "threadpoolctl"):
        try:
            rec[mod] = importlib.import_module(mod).__version__
        except ImportError:
            rec[mod] = None
    try:
        import numpy as np
        import scipy.linalg  # noqa: F401  (loads scipy's BLAS as the oracle does)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (ImportError, TypeError, KeyError):
        rec["blas"] = None
    rec["blas_threads"] = _blas_threads()
    rec["blas_thread_env"] = {k: os.environ[k] for k in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                              if k in os.environ}
    return rec


def matrices() -> dict:
    """Time rank_sequence(M) and rank_mod_p(M - I) on the fixed matrices,
    and check the ranks: the sequence starts at n, strictly decreases to
    0 within p + 1 entries, and its second entry is rank(M - I).  The
    Kronecker matrices are Steinberg modules, free over K[u], so their
    ranks are n (p - k) / p."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from unipjordan import identity_matrix, kron, pascal_matrix, rank_mod_p, rank_sequence

    out: dict = {"timings": {}, "ok": True, "errors": []}
    for name, (kind, size, p) in PROBE_MATRICES.items():
        if kind == "pascal":
            M = pascal_matrix(size, p)
        else:
            M = identity_matrix(1, p)
            for _ in range(size):
                M = kron(M, pascal_matrix(p - 1, p))
        n = M.rows
        t0 = time.perf_counter()
        ranks = rank_sequence(M)
        t1 = time.perf_counter()
        N = (M.array - np.eye(n, dtype=np.int64)) % p
        t2 = time.perf_counter()
        rank = rank_mod_p(N, p)
        t3 = time.perf_counter()
        out["timings"][name] = {"n": n, "ranks": ranks,
                                "rank_sequence_s": t1 - t0, "rank_mod_p_s": t3 - t2}
        good = (ranks[0] == n and ranks[-1] == 0 and len(ranks) <= p + 1
                and all(a > b for a, b in zip(ranks, ranks[1:])) and rank == ranks[1])
        if kind == "kron":
            good = good and ranks == [n * (p - k) // p for k in range(p + 1)]
        if not good:
            out["ok"] = False
            out["errors"].append(f"{name}: ranks {ranks}, rank(M - I) {rank}")
    return out


def parse_importtime(stderr: str) -> dict:
    """Milliseconds from ``-X importtime`` output: the self time of every
    numpy and scipy module, and the cumulative time of the top-level
    unipjordan imports (libraries included)."""
    total = {"numpy": 0, "scipy": 0, "unipjordan": 0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line.split(":", 1)[1].split("|")
        self_us, cum_us, raw = int(fields[0]), int(fields[1]), fields[2]
        name = raw.strip()
        top = name.split(".")[0]
        if top in ("numpy", "scipy"):
            total[top] += self_us
        elif top == "unipjordan" and raw.startswith(" ") and not raw.startswith("  "):
            total["unipjordan"] += cum_us
    return {k: v / 1e3 for k, v in total.items()}


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "env":
        print(json.dumps(env()))
    elif what == "matrices":
        print(json.dumps(matrices()))
    else:
        sys.exit("usage: probes.py env|matrices")
