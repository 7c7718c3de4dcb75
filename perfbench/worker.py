"""One workload run, in a process of its own.

Started by ``run.py``; never run by hand. The process imports calbounds
from the checkout's ``src``, builds its in-memory inputs, then runs the
workload's operations one at a time, timing each call into calbounds. Each
operation's outputs are collected after its timer stops and written, with
the timings, to the ``--result`` file; the parent checks them. With
``--trace 1`` every calbounds layer is wrapped in spans first (see
``spans.py``).

Only the standard library is imported before calbounds, so the measured
import time includes numpy and scipy as a user pays it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
from operator import attrgetter
from pathlib import Path
from time import perf_counter, process_time

# Workload sizes. The parent generates inputs of these sizes and computes
# the references; the operations below consume them.
SCORE_ROWS = 250_000      # rows of each score file (test, train, tied pool)
SCORE_BINS = 15           # fixed bin count of the score-file jobs
RECAL_N_RE = 20_000       # held-out recalibration fit size
SWEEP_ROWS = 1_000_000    # scores of each in-memory dataset (test, train)
SWEEP_BINS = (5, 10, 15, 50, 100, 200)
SWEEP_RECAL_BINS = 15
KNN_SCALAR = (5000, 50)   # (pairs, distinct labels) of the scalar MI input
KNN_VECTOR = (3000, 10)   # (pairs, distinct labels) of the 2-vector MI input
KNN_K = 3
PLUGIN_BINS = 16
CMI_DEFAULT_CELLS = 3 * 5 * 10  # n-grid size x supersamples x masks
CMI_EXHAUSTIVE_N = 8


def peak_rss_mb() -> float:
    """High-water resident memory of this process image, in MiB.

    ``ru_maxrss`` is not used on Linux: it keeps the high-water mark of the
    image the process replaced on exec, which is the parent's.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Times operations one at a time and keeps their outputs."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.ops: list[dict] = []

    def setup(self, fn):
        start = perf_counter()
        result = fn()
        self.setup_s += perf_counter() - start
        return result

    def op(self, name: str, fn, collect, items: int):
        """Time ``fn()``; store ``collect(result)`` as the operation's output."""
        entry = {"name": name, "items": items, "wall_s": None, "cpu_s": None,
                 "output": None, "error": None}
        self.ops.append(entry)
        cpu0, start = process_time(), perf_counter()
        try:
            result = fn()
        except Exception as e:  # a failed operation is counted, the run goes on
            entry["error"] = f"{type(e).__name__}: {e}"
            return None
        entry["wall_s"] = perf_counter() - start
        entry["cpu_s"] = process_time() - cpu0
        try:
            entry["output"] = collect(result)
        except Exception as e:
            entry["error"] = f"output unreadable: {type(e).__name__}: {e}"
        return result

    def cli(self, cli, name: str, argv: list, out: Path, items: int) -> None:
        """Run one CLI job through ``calbounds.cli.main`` into a fresh output directory."""
        out.mkdir(parents=True, exist_ok=True)
        for stale in out.iterdir():
            stale.unlink()
        stdout = io.StringIO()
        argv = [str(a) for a in argv] + ["--out", str(out)]

        def call():
            with contextlib.redirect_stdout(stdout):
                return cli.main(argv)

        def collect(code):
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            record = json.loads((out / "run_record.json").read_text())
            record.pop("timestamp")
            csv = {p.name: p.read_text() for p in sorted(out.glob("*.csv"))}
            return {"stdout": stdout.getvalue(), "record": record, "csv": csv}

        self.op(name, call, collect, items)


def score_files(cb, run: Runner, inputs: Path, out: Path, seed: int, np) -> None:
    test, train, pool = inputs / "test.csv", inputs / "train.json", inputs / "pool.csv"
    n = SCORE_ROWS
    jobs = (
        ("ece-uwb", ["ece", test, "--bins", SCORE_BINS, "--method", "uwb"], n),
        ("ece-umb-auto", ["ece", test, "--method", "umb", "--bins", "auto", "--lipschitz", "1.0"], n),
        ("gap-umb", ["gap", train, test, "--bins", SCORE_BINS, "--method", "umb"], 2 * n),
        ("recal-holdout", ["recalibrate", "--input", pool, "--variant", "holdout",
                           "--bins", SCORE_BINS, "--n-re", RECAL_N_RE, "--seed", seed], n),
        ("recal-reuse", ["recalibrate", "--input", pool, "--variant", "reuse",
                         "--bins", SCORE_BINS, "--seed", seed], n),
    )
    for name, argv, items in jobs:
        run.cli(cb.cli, name, argv, out / name, items)


def bin_sweep(cb, run: Runner, inputs: Path, out: Path, seed: int, np) -> None:
    ts, ty, rs, ry = (np.load(inputs / f"{k}.npy") for k in
                      ("test_scores", "test_labels", "train_scores", "train_labels"))
    test = run.setup(lambda: cb.ScoredDataset(ts, ty))
    train = run.setup(lambda: cb.ScoredDataset(rs, ry))
    n = SWEEP_ROWS
    for method in ("uwb", "umb"):
        for B in SWEEP_BINS:
            key = f"{method}:{B}"
            if method == "uwb":
                scheme = run.op(f"scheme:{key}", lambda: cb.uwb_scheme(B), lambda s: s.edges.tolist(), 0)
            else:
                scheme = run.op(f"scheme:{key}", lambda: cb.umb_scheme(train.scores, B),
                                lambda s: s.edges.tolist(), 0)
            run.op(f"ece:{key}", lambda: cb.ece(test, scheme), lambda e: e.value, n)
            run.op(f"ece_reformulated:{key}", lambda: cb.ece_reformulated(test, scheme),
                   lambda e: e.value, n)
            run.op(f"ece_gap:{key}", lambda: cb.ece_gap(train, test, scheme),
                   lambda g: [g.value, *g.components], 2 * n)
            run.op(f"bin_stats:{key}", lambda: cb.bin_stats(scheme, test),
                   lambda s: {"counts": s.counts.tolist(), "mass_sum": float(np.sum(s.masses))}, n)
    recal = run.op("fit_recalibrator", lambda: cb.fit_recalibrator(train, SWEEP_RECAL_BINS),
                   lambda r: {"edges": r.scheme.edges.tolist(), "mu": r.mu.tolist()}, n)
    run.op("apply_recalibrator", lambda: cb.apply_recalibrator(recal, test.scores),
           lambda m: float(np.sum(m) / m.size), n)
    run.op("recalibrated_tce", lambda: cb.recalibrated_tce(recal, test), float, n)


def cmi_grid(cb, run: Runner, inputs: Path, out: Path, seed: int, np) -> None:
    run.cli(cb.cli, "cmi-default", ["cmi", "--seed", seed], out / "cmi-default", CMI_DEFAULT_CELLS)
    run.cli(cb.cli, "cmi-exhaustive",
            ["cmi", "--n-grid", CMI_EXHAUSTIVE_N, "--exhaustive", "--n-supersamples", 1, "--seed", seed],
            out / "cmi-exhaustive", 2**CMI_EXHAUSTIVE_N)
    run.cli(cb.cli, "synthetic", ["synthetic", "--seed", seed], out / "synthetic", 0)


def mi_knn(cb, run: Runner, inputs: Path, out: Path, seed: int, np) -> None:
    sv, sl, vv, vl = (np.load(inputs / f"{k}.npy") for k in
                      ("scalar_values", "scalar_labels", "vector_values", "vector_labels"))
    value = attrgetter("value")
    run.op("ksg:scalar", lambda: cb.ksg_mixed_mi(sv, sl, k=KNN_K), value, len(sv))
    run.op("ksg:vector", lambda: cb.ksg_mixed_mi(vv, vl, k=KNN_K), value, len(vv))
    run.op("plugin:scalar", lambda: cb.plugin_mi(sv, sl, bins=PLUGIN_BINS), value, len(sv))
    run.op("plugin:vector-x0", lambda: cb.plugin_mi(vv[:, 0], vl, bins=PLUGIN_BINS), value, len(vv))


WORKLOADS = {"score-files": score_files, "bin-sweep": bin_sweep, "cmi-grid": cmi_grid, "mi-knn": mi_knn}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--root", type=Path, required=True, help="checkout holding src/calbounds")
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    start = perf_counter()
    import calbounds
    import calbounds.cli
    import_s = perf_counter() - start
    if not Path(calbounds.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"calbounds imported from {calbounds.__file__}, not from {src}")
    import numpy as np

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run = Runner()
    WORKLOADS[args.workload](calbounds, run, args.inputs, args.out, args.seed, np)
    result = {
        "calbounds_version": calbounds.__version__,
        "import_s": import_s,
        "setup_s": import_s + run.setup_s,
        "ops": run.ops,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        traced = run.setup_s + math.fsum(op["wall_s"] or 0.0 for op in run.ops)
        result["layers"] = tracer.metrics(traced)
        result["spans"] = {k: v for k, v in tracer.spans.items() if v[0]}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
