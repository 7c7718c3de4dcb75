"""calbounds benchmark: time one workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload score-files --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from a checkout that holds ``src/calbounds``; calbounds is imported from
there, not from an installed copy. The run is a closed loop from one client:
one process, one operation at a time, no extra threads. For ``--seconds``
seconds (and at least three times) the workload runs in a fresh child
process (``worker.py``), so each run's memory is its own. Inputs are made
from ``--seed`` by the benchmark's own numpy code (``reference.py``), and
every operation's outputs are checked against independent numpy references.

With ``--trace 0`` the printed metrics are the end-to-end metrics of
``BENCHMARK.json``, each the median over the runs. With ``--trace 1`` runs
alternate between untraced and traced (spans around every calbounds layer,
see ``spans.py``) and the printed metrics are the per-layer ones; the
traced runs only ever give per-layer numbers, because the wrappers inflate
wall time (the UMB auto job makes ~125k bound calls).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when one failed, 2 on a usage error (such as a
directory without ``src/calbounds``). A full report of the last run of each
workload is written to ``.perfbench/<workload>/report.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import reference as R
import worker as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TOL = 1e-12          # |calbounds value - numpy reference| allowed for every checked number
MIN_RUNS = 3         # untraced runs behind every median (traced runs: as many again)
LAUNCH_LIMIT_S = 120.0  # no new run of a workload starts after this long
KILL_LIMIT_S = 170.0    # a run still going this long after its workload began is killed
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# HostSpeed kernels that stand in for each workload's hot path, and each
# kernel's time on the baseline host. bin-sweep is memory-bound numpy on
# large arrays; the other workloads are dominated by interpreter-bound code
# and slow down under load like the mix of all four kernels.
ALL_KERNELS = ("parse", "binning", "training", "pairwise")
KERNELS = {"score-files": ALL_KERNELS, "bin-sweep": ("binning",), "cmi-grid": ALL_KERNELS, "mi-knn": ALL_KERNELS}
KERNEL_S = {"parse": 0.016, "binning": 0.0145, "training": 0.015, "pairwise": 0.013}
HOST_NOTE = ("baseline host: shared 2-core machine; four back-to-back ~2 s single jobs "
             "ranged 1.8-3.2 s there, so compare medians of many runs")


# ------------------------------------------------------------------ checks


def near(label, got, want):
    if isinstance(got, bool) or not isinstance(got, (int, float)) or not math.isfinite(got) \
            or abs(got - want) > TOL:
        return f"{label}: got {got!r}, reference {want!r}"
    return None


def finite(label, got):
    if isinstance(got, bool) or not isinstance(got, (int, float)) or not math.isfinite(got):
        return f"{label}: not a finite number: {got!r}"
    return None


def first(*messages):
    return next((m for m in messages if m), None)


def result_of(out, name):
    for entry in out["record"]["results"]:
        if entry["name"] == name:
            return entry
    raise KeyError(f"run record has no result {name!r}")


def csv_rows(out, name):
    header, *rows = out["csv"][name].strip().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows]


def ece_job(want, bins):
    def check(out, rep):
        r = result_of(out, "ece")
        got_bins = r["inputs"]["B"]
        return first(near("ece", r["value"], want),
                     None if got_bins == bins else f"bins {got_bins}, reference {bins}")
    return check


def recal_job(ece_raw, tce):
    def check(out, rep):
        return first(near("ece_raw", result_of(out, "ece_raw")["value"], ece_raw),
                     near("tce_recalibrated", result_of(out, "tce_recalibrated")["value"], tce))
    return check


def cmi_job(n_grid, supersamples, masks):
    def check(out, rep):
        summary = csv_rows(out, "cmi_summary.csv")
        if [int(r["n"]) for r in summary] != n_grid:
            return f"summary rows for n={[r['n'] for r in summary]}, expected {n_grid}"
        for row in summary:
            mean_gap, ecmi, bound = (float(row[k]) for k in ("mean_gap", "ecmi_est", "bound"))
            msg = first(finite("ecmi_est", ecmi), finite("bound", bound), finite("mean_gap", mean_gap))
            if msg or not (0.0 <= mean_gap <= 1.0) or bound <= 0.0:
                return msg or f"n={row['n']}: mean_gap {mean_gap} or bound {bound} out of range"
        for n in n_grid:
            cells = csv_rows(out, f"cmi_cells_n{n}.csv")
            if len(cells) != supersamples * masks * 3:
                return f"n={n}: {len(cells)} cell rows, expected {supersamples * masks * 3}"
            bad = [c for c in cells if not math.isfinite(float(c["value"]))]
            if bad:
                return f"n={n}: non-finite cell statistic {bad[0]}"
        return first(*(finite(r["name"], r["value"]) for r in out["record"]["results"]))
    return check


def synthetic_job(rows_expected):
    def check(out, rep):
        rows = csv_rows(out, "synthetic_gaps.csv")
        if len(rows) != rows_expected:
            return f"{len(rows)} gap rows, expected {rows_expected}"
        for row in rows:
            e, tce, gap = float(row["ece"]), float(row["tce"]), float(row["tce_gap"])
            if not (0.0 <= e <= 1.0) or gap != abs(tce - e):
                return f"row {row}: ece out of [0, 1] or tce_gap != |tce - ece|"
        return first(*(finite(r["name"], r["value"]) for r in out["record"]["results"]))
    return check


def agrees_with(other, label):
    """The output must equal another operation's output of the same run to within TOL."""
    def check(out, rep):
        return near(f"{label} vs {other}", out, rep[other])
    return check


def all_of(*checks):
    def check(out, rep):
        return first(*(c(out, rep) for c in checks))
    return check


# ------------------------------------------------------------------ workloads
# Each prepare function writes the workload's inputs for a seed and returns
# (checks, input digests): one check per operation the worker runs, in order.


def prepare_score_files(seed: int, inputs: Path):
    rng = R.rng_for(seed, "score-files")
    n, B = W.SCORE_ROWS, W.SCORE_BINS
    ts, ty = R.miscalibrated_scores(rng, n)
    rs, ry = R.miscalibrated_scores(rng, n)
    ps, py = R.tied_pool(rng, n)
    digests = {
        "test.csv": R.write_checked(inputs / "test.csv", R.csv_text(ts, ty)),
        "train.json": R.write_checked(inputs / "train.json", R.json_text(rs, ry)),
        "pool.csv": R.write_checked(inputs / "pool.csv", R.csv_text(ps, py)),
    }
    test, train = R.SortedSample(ts, ty), R.SortedSample(rs, ry)
    b_auto = R.optimal_umb_bins(n, 1.0)
    gap_edges = R.umb_edges(rs, B)
    gap_test, gap_train = test.ece(gap_edges), train.ece(gap_edges)

    def gap_check(out, rep):
        r = result_of(out, "ece_gap")
        got_test, got_train = r["inputs"]["components"]
        return first(near("test ece", got_test, gap_test), near("train ece", got_train, gap_train),
                     near("ece_gap", r["value"], abs(gap_test - gap_train)))

    recal = {}
    for variant, n_re in (("holdout", W.RECAL_N_RE), ("reuse", None)):
        fit, held = R.recalibration_split(n, seed, 0.5, n_re)
        _, _, ece_raw, tce, _ = R.recalibration(
            R.SortedSample(ps[fit], py[fit]), R.SortedSample(ps[held], py[held]), B)
        recal[variant] = recal_job(ece_raw, tce)
    checks = {
        "ece-uwb": ece_job(test.ece(R.uwb_edges(B)), B),
        "ece-umb-auto": ece_job(test.ece(R.umb_edges(ts, b_auto)), b_auto),
        "gap-umb": gap_check,
        "recal-holdout": recal["holdout"],
        "recal-reuse": recal["reuse"],
    }
    return checks, digests


def save_arrays(inputs: Path, **arrays) -> dict:
    digests = {}
    for name, arr in arrays.items():
        np.save(inputs / f"{name}.npy", arr)
        digests[f"{name}.npy"] = R.file_digest(inputs / f"{name}.npy")
    return digests


def prepare_bin_sweep(seed: int, inputs: Path):
    rng = R.rng_for(seed, "bin-sweep")
    ts, ty = R.miscalibrated_scores(rng, W.SWEEP_ROWS)
    rs, ry = R.miscalibrated_scores(rng, W.SWEEP_ROWS)
    digests = save_arrays(inputs, test_scores=ts, test_labels=ty, train_scores=rs, train_labels=ry)
    test, train = R.SortedSample(ts, ty), R.SortedSample(rs, ry)
    checks = {}
    for method in ("uwb", "umb"):
        for B in W.SWEEP_BINS:
            key = f"{method}:{B}"
            edges = R.uwb_edges(B) if method == "uwb" else R.umb_edges(rs, B)
            want_edges = edges.tolist()
            e_test, e_train = test.ece(edges), train.ece(edges)
            counts = test.bins(edges)[0].tolist()
            checks[f"scheme:{key}"] = (
                lambda out, rep, want=want_edges: None if out == want else "edges differ from reference")
            checks[f"ece:{key}"] = lambda out, rep, want=e_test: near("ece", out, want)
            checks[f"ece_reformulated:{key}"] = all_of(
                lambda out, rep, want=e_test: near("ece_reformulated", out, want),
                agrees_with(f"ece:{key}", "ece_reformulated"))
            checks[f"ece_gap:{key}"] = (
                lambda out, rep, a=e_test, b=e_train: first(
                    near("ece_gap", out[0], abs(a - b)), near("test ece", out[1], a),
                    near("train ece", out[2], b)))
            checks[f"bin_stats:{key}"] = (
                lambda out, rep, want=counts: first(
                    None if out["counts"] == want else "bin counts differ from reference",
                    near("mass sum", out["mass_sum"], 1.0)))
    edges, mu, _, tce, mean_mapped = R.recalibration(train, test, W.SWEEP_RECAL_BINS)

    def fit_check(out, rep):
        if out["edges"] != edges.tolist():
            return "recalibrator edges differ from reference"
        return first(*(near(f"mu[{i}]", g, w) for i, (g, w) in enumerate(zip(out["mu"], mu.tolist()))))

    checks["fit_recalibrator"] = fit_check
    checks["apply_recalibrator"] = lambda out, rep: near("mean recalibrated score", out, mean_mapped)
    checks["recalibrated_tce"] = lambda out, rep: near("recalibrated_tce", out, tce)
    return checks, digests


def prepare_cmi_grid(seed: int, inputs: Path):
    checks = {
        "cmi-default": cmi_job([100, 500, 2000], 5, 10),
        "cmi-exhaustive": cmi_job([W.CMI_EXHAUSTIVE_N], 1, 2**W.CMI_EXHAUSTIVE_N),
        "synthetic": synthetic_job(5 * 20),
    }
    return checks, {}


def prepare_mi_knn(seed: int, inputs: Path):
    rng = R.rng_for(seed, "mi-knn")
    m, labels = W.KNN_SCALAR
    sl = rng.integers(0, labels, size=m)
    sv = rng.normal(0.05 * sl, 1.0)
    m2, labels2 = W.KNN_VECTOR
    vl = rng.integers(0, labels2, size=m2)
    vv = rng.normal(np.outer(vl, [0.1, -0.05]), 1.0)
    digests = save_arrays(inputs, scalar_values=sv, scalar_labels=sl, vector_values=vv, vector_labels=vl)
    checks = {
        "ksg:scalar": lambda out, rep: finite("ksg scalar", out),
        "ksg:vector": lambda out, rep: finite("ksg vector", out),
        "plugin:scalar": lambda out, rep, w=R.plugin_mi(sv, sl, W.PLUGIN_BINS): near("plugin", out, w),
        "plugin:vector-x0": lambda out, rep, w=R.plugin_mi(vv[:, 0], vl, W.PLUGIN_BINS): near("plugin", out, w),
    }
    return checks, digests


PREPARE = {
    "score-files": prepare_score_files,
    "bin-sweep": prepare_bin_sweep,
    "cmi-grid": prepare_cmi_grid,
    "mi-knn": prepare_mi_knn,
}


# ------------------------------------------------------------------ runs


class HostSpeed:
    """Times fixed kernels that touch no calbounds code, around each run.

    On a shared host the speed of the machine moves with the load other
    tenants put on it, and kinds of work slow down by different factors:
    interpreter-bound code more than memory-bound code. The kernels are
    miniatures of the workloads' hot paths, written here once and never
    changed: parsing score rows, binning a large array, logistic gradient
    descent on small arrays, pairwise max-norm distances. A run's times are
    reported at a fixed host speed: measured time x the workload's kernels'
    time on the baseline host (``KERNEL_S``) / their mean time just before
    and after that run. The kernels run in this process, between the runs'
    child processes, so they add nothing to a run's own time or memory.
    """

    REPEATS = 3

    def __init__(self, workload: str) -> None:
        self.parts = [getattr(self, "_" + name) for name in KERNELS[workload]]
        self.baseline_s = sum(KERNEL_S[name] for name in KERNELS[workload])
        rng = np.random.default_rng(0)
        self.text = "\n".join(f"{v!r},{int(v < 0.5)}" for v in rng.random(25_000).tolist())
        self.scores = rng.random(600_000)
        self.edges = np.arange(16) / 15.0
        self.x, self.y = rng.normal(size=500), rng.integers(0, 2, size=500).astype(np.float64)
        self.points = rng.normal(size=(1800, 1))
        self.measure()  # first touch of the data is not timed

    def _parse(self) -> None:
        rows = [line.strip().split(",") for line in self.text.splitlines()]
        [(float(score), int(label)) for score, label in rows]

    def _binning(self) -> None:
        idx = np.maximum(np.searchsorted(self.edges, self.scores), 1) - 1
        np.bincount(idx, weights=self.scores, minlength=15)
        np.bincount(idx, minlength=15)

    def _training(self) -> None:
        for x, y in ((self.x, self.y), (self.x[:8], self.y[:8])):  # a cell and an exhaustive-mode cell
            beta = np.zeros(2)
            for _ in range(400):
                p = 1.0 / (1.0 + np.exp(-(beta[0] + beta[1] * x)))
                np.mean(y * np.log(p + 1e-12) + (1.0 - y) * np.log(1.0 - p + 1e-12))
                resid = p - y
                beta = beta - 0.5 * np.array([np.mean(resid), np.mean(resid * x)])

    def _pairwise(self) -> None:
        pts = self.points
        dist = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
        for i in range(0, pts.shape[0], 4):
            np.count_nonzero(dist[i] < dist[i, (i + 1) % pts.shape[0]])

    def measure(self) -> list[list[float]]:
        times = []
        for _ in range(self.REPEATS):
            cpu0, start = process_time(), perf_counter()
            for part in self.parts:
                part()
            times.append([perf_counter() - start, process_time() - cpu0])
        return times


def run_once(workload, seed, traced, work: Path, began: float) -> dict:
    """One workload run in a fresh process; returns the worker's result or a crash record."""
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--root", str(ROOT),
           "--inputs", str(work / "inputs"), "--out", str(work / "out"), "--seed", str(seed),
           "--trace", str(int(traced)), "--result", str(result_path)]
    timeout = max(1.0, KILL_LIMIT_S - (perf_counter() - began))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crash": f"killed after {timeout:.0f} s", "traced": traced}
    if proc.returncode != 0 or not result_path.exists():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return {"crash": f"worker exit {proc.returncode}: {' | '.join(tail)}", "traced": traced}
    result = json.loads(result_path.read_text())
    result["traced"] = traced
    return result


def check_run(result, checks) -> list[str]:
    """Failure messages of one run, one per failed operation."""
    if "crash" in result:
        return [f"{name}: {result['crash']}" for name in checks]
    ops = {op["name"]: op for op in result["ops"]}
    outputs = {name: op["output"] for name, op in ops.items()}
    failures = [f"{name}: not run" for name in checks if name not in ops]
    failures += [f"{name}: unexpected operation" for name in ops if name not in checks]
    for name, op in ops.items():
        if name not in checks:
            continue
        if op["error"]:
            failures.append(f"{name}: {op['error']}")
            continue
        try:
            msg = checks[name](op["output"], outputs)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            msg = f"output malformed: {type(e).__name__}: {e}"
        if msg:
            failures.append(f"{name}: {msg}")
    return failures


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def median(values):
    return statistics.median(values) if values else 0.0


E2E = ("wall_s", "cpu_s", "items_per_s", "peak_rss_mb", "setup_s")
RAW = ("raw_wall_s", "raw_cpu_s", "raw_setup_s", "host_speed")


def summarize(run, baseline_s: float) -> dict:
    """One clean run's metrics, times expressed at the fixed host speed (see HostSpeed).

    The host speed comes from the kernel timings just before and after this
    run, so it follows the host's load from one run to the next.
    """
    speed = baseline_s / statistics.fmean(w for w, _ in run["calibration"])
    cpu_speed = baseline_s / statistics.fmean(c for _, c in run["calibration"])
    wall = math.fsum(op["wall_s"] for op in run["ops"])
    cpu = math.fsum(op["cpu_s"] for op in run["ops"])
    out = {
        "traced": run["traced"],
        "wall_s": wall * speed,
        "cpu_s": cpu * cpu_speed,
        "items_per_s": sum(op["items"] for op in run["ops"]) / (wall * speed),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": run["setup_s"] * speed,
        "raw_wall_s": wall, "raw_cpu_s": cpu, "raw_setup_s": run["setup_s"], "host_speed": speed,
    }
    if "layers" in run:
        out["layers"] = {k: v * speed if k.endswith("_s") else v for k, v in run["layers"].items()}
    return out


def run_workload(workload, seed, seconds, trace, spec) -> dict:
    began = perf_counter()
    work = ROOT / ".perfbench" / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    load_before = os.getloadavg()
    checks, digests = PREPARE[workload](seed, work / "inputs")

    runs = []
    host = HostSpeed(workload)
    started = perf_counter()
    while True:
        untraced = sum(not r["traced"] for r in runs)
        if untraced >= MIN_RUNS and len(runs) >= (2 * MIN_RUNS if trace else MIN_RUNS) \
                and perf_counter() - started >= seconds:
            break
        if perf_counter() - began > LAUNCH_LIMIT_S:
            break
        before = host.measure()
        run = run_once(workload, seed, bool(trace) and len(runs) % 2 == 1, work, began)
        run["calibration"] = before + host.measure()
        runs.append(run)

    failures, digests_out = [], set()
    for r in runs:
        r["failures"] = check_run(r, checks)
        failures += r["failures"]
        if "crash" not in r:
            digests_out.add(R.output_digest([[op["name"], op["output"]] for op in r["ops"]]))
    changed = [name for name, d in digests.items() if R.file_digest(work / "inputs" / name) != d]
    failures += [f"input {name} changed during the run" for name in changed]
    if len(digests_out) > 1:
        failures.append(f"outputs differ between runs of one seed ({len(digests_out)} digests)")
    attempted = len(checks) * len(runs)
    failed = min(attempted, sum(len(r["failures"]) for r in runs) + len(changed) + (len(digests_out) > 1))

    clean = [summarize(r, host.baseline_s) for r in runs if not r["failures"]]
    plain = [r for r in clean if not r["traced"]]
    values = {k: median([r[k] for r in plain]) for k in (*E2E, *RAW)}
    if trace:
        traced = [r for r in clean if r["traced"]]
        layers = {k: median([r["layers"][k] for r in traced]) for k in (traced[0]["layers"] if traced else {})}
        layers["trace_overhead_s"] = median([r["wall_s"] for r in traced]) - values["wall_s"]
        wanted = spec["per_layer"]
    else:
        layers = {}
        wanted = spec["end_to_end"]
    source = layers if trace else values
    unknown = [m["name"] for m in wanted if m["name"] not in source]
    if unknown and runs and not failures:
        raise SystemExit(f"BENCHMARK.json names metrics this benchmark does not measure: {unknown}")
    metrics = {m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    environment = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "runs": len(runs), "samples_per_median": len(plain),
        "traced_samples": len(clean) - len(plain),
        "nproc": os.cpu_count(), "cpu": cpu_model(), "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(), "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "calbounds": next((r["calbounds_version"] for r in runs if "calbounds_version" in r), None),
        "git_commit": git_commit(ROOT), "note": HOST_NOTE,
        "input_digests": digests, "output_digest": sorted(digests_out),
    }
    report = {
        "environment": environment, "metrics": metrics, "end_to_end": values, "layers": layers,
        "failures": failures[:50], "attempted": attempted, "failed": failed,
        "runs": [{k: r.get(k) for k in ("traced", "setup_s", "import_s", "peak_rss_mb", "calibration", "crash")}
                 | {"ops": [{k: op.get(k) for k in ("name", "wall_s", "cpu_s", "items", "error")}
                            for op in r.get("ops", [])],
                    "spans": r.get("spans")} for r in runs],
    }
    (work / "report.json").write_text(json.dumps(report, indent=1))
    return report


def print_report(report) -> None:
    env = report["environment"]
    print(f"workload {env['workload']}  seed {env['seed']}  trace {env['trace']}  "
          f"runs {env['runs']}  medians over {env['samples_per_median']} untraced runs")
    for name, m in report["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    e2e = report["end_to_end"]
    print(f"  host speed {e2e['host_speed']:.3f} of the baseline host's; unnormalized: "
          f"wall {e2e['raw_wall_s']:.4g} s, cpu {e2e['raw_cpu_s']:.4g} s, setup {e2e['raw_setup_s']:.4g} s")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'fail_ratio':<40} {failed / attempted if attempted else 1.0:>14.6g} "
          f"({failed} of {attempted} operations failed)")
    for msg in report["failures"][:10]:
        print(f"  FAILED {msg}")
    print("environment " + json.dumps(env, sort_keys=True))


def result_line(report) -> dict:
    return {"correct": report["attempted"] > 0 and not report["failures"],
            "attempted": max(1, report["attempted"]),
            "failed": report["failed"] if report["attempted"] else 1, "metrics": report["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="calbounds benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=[*PREPARE, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "calbounds" / "__init__.py").is_file():
        print(f"error: no calbounds source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.workload != "all":
        report = run_workload(args.workload, args.seed, seconds, args.trace, spec)
        print_report(report)
        line = result_line(report)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    lines = []
    for workload in PREPARE:
        report = run_workload(workload, args.seed, seconds, args.trace, spec)
        print_report(report)
        lines.append((workload, result_line(report)))
    combined = {
        "correct": all(line["correct"] for _, line in lines),
        "attempted": sum(line["attempted"] for _, line in lines),
        "failed": sum(line["failed"] for _, line in lines),
        "metrics": {f"{w}.{k}": v for w, line in lines for k, v in line["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
