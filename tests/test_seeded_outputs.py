"""Seeded CLI outputs stay byte-identical: one sha256 per output file.

Each run goes through ``cli.main`` in-process from a fresh working directory
with relative input paths, so no absolute path reaches the run record. The
digests cover stdout, every CSV, and ``run_record.json`` without its
``timestamp``. A change that moves an output updates its digest here and
states in CHANGES.md which outputs moved and why. The digests hold for one
numpy build and ``exp`` dispatch: numpy picks its float64 ``exp`` and ``log``
kernels by CPU feature, and the runs that train, draw or integrate through
``models._expit`` follow them, so those runs are pinned per kernel. Another
BLAS, numpy release or kernel may move the last bits of a float, and then the
digests are re-derived, not loosened.

The same runs also show that every bound a record holds is its bound
function's report, and recomputes exactly from the recorded inputs.
"""

import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from test_models import exp_fingerprint, run_without_avx512

from calbounds.bounds import BOUNDS
from calbounds.cli import main

TRAIN_CSV = """score,label
0.05,0
0.12,0
0.2,1
0.31,0
0.38,1
0.45,0
0.52,1
0.6,1
0.68,0
0.77,1
0.85,1
0.93,1
"""
TEST_CSV = """score,label
0.08,0
0.15,1
0.22,0
0.3,0
0.41,1
0.47,1
0.55,0
0.63,1
0.7,1
0.79,1
0.88,0
0.97,1
"""
# The training rows again, as a JSON score file.
TRAIN_JSON = json.dumps([{"score": float(s), "label": int(y)}
                         for s, y in (row.split(",") for row in TRAIN_CSV.splitlines()[1:])])
RECAL = ["recalibrate", "--bins", "15", "--n-total", "8100", "--seed", "1"]
RUNS = {
    "ece": ["ece", "train.csv", "--bins", "3", "--method", "umb"],
    "gap": ["gap", "train.csv", "test.csv", "--bins", "3", "--method", "umb"],
    "gap-json": ["gap", "train.json", "test.csv", "--bins", "3", "--method", "umb"],
    "bounds": ["bounds", "gen-tce", "--ecmi", "0.1", "--fcmi", "0.2", "--bins", "15",
               "--n", "4000", "--lipschitz", "1", "--variant", "umb"],
    "synthetic": ["synthetic", "--n-grid", "200,400", "--reps", "2", "--seed", "1"],
    "cmi": ["cmi", "--n-grid", "40,100", "--seed", "1"],
    "cmi-exhaustive": ["cmi", "--n-grid", "8", "--exhaustive", "--n-supersamples", "1", "--seed", "1"],
    "cmi-uwb": ["cmi", "--n-grid", "40", "--method", "uwb", "--seed", "1"],
    "recalibrate-holdout": [*RECAL, "--n-re", "100", "--variant", "holdout"],
    "recalibrate-reuse": [*RECAL, "--variant", "reuse"],
}
DIGESTS = {
    "ece": {
        "stdout": "dd82e383bca3ab1c35c18970ef55357a6471177328e4cfabad23a03769824526",
        "run_record.json": "c52605dab2ba7fa8e27dcdc6010da505f18351457a0440d42776d4bec590438e",
    },
    "gap": {
        "stdout": "56dddbd700b49817f57b55d4d5e3cbf1e73d2e809e8633a827fc67adc0c11b2a",
        "run_record.json": "f3bb3ed7c8f8254f76e4884c63715e908d1165ca3769115846633b59a906f6ee",
    },
    "gap-json": {
        "stdout": "56dddbd700b49817f57b55d4d5e3cbf1e73d2e809e8633a827fc67adc0c11b2a",
        "run_record.json": "ee324b3114ce2b9e3b2d00d5289c6d5037f2e271adae8fba15f53c99ac9ff5c5",
    },
    "bounds": {
        "stdout": "e299752765c1a1d65c71961a07aa2639d5f866b5f16a3dda802b7f58889fa0ff",
        "run_record.json": "04a054ca67e572443f89caed5f8ba49e24970fedb5afaced38bc3a341a4a3840",
    },
    "synthetic": {
        "stdout": "d7e81a57a9ba458398db0ea78bb97cc51b00ad252c33af149f64ea0672bf03db",
        "run_record.json": "5c10f92b6e44b29818e8d3f4d4f5bb335af6129daa0f09797b8fdaf2839a25c5",
        "synthetic_gaps.csv": "2498b441273c29438a1b93faa5c63015417ebe3624d270f9c24d2863bf85c5a5",
    },
    "cmi": {
        "stdout": "0230447241c0b475b3c589b0c2f02e92c8cc6134c6c9537edc42e274450ec7fd",
        "run_record.json": "2d712c14e3743395d4c0396276350a881cc958a61ef16f285b244c9e7916070c",
        "cmi_cells_n100.csv": "587711040ff1334f904d190721976024259418178c356aa37dc9663d01cfbe32",
        "cmi_cells_n40.csv": "888504dcbdf91269265137a5ecd82929451fc60651b4ff78c92df32bd4516910",
        "cmi_summary.csv": "8a337dc47cb86f94dc7259a236e4c78d10c78743ecc2d60418cda6e997a0f768",
    },
    "cmi-exhaustive": {
        "stdout": "388f4f03e3e996dda9f5b17f918e077b6a2e1aeb2178bd13426af97977db328e",
        "run_record.json": "6df6a958931fc3fa40de350b804695e3621ff5472468d6112ad419b207837b0b",
        "cmi_cells_n8.csv": "c7e96de32b261628e440e14e035cd637307ae52269b9c7501f457a54f68a5d7b",
        "cmi_summary.csv": "633bcb07c61fea9ac66cb41edc4ee3b960b5f164bbe873220babf559b4e3b70e",
    },
    "cmi-uwb": {
        "stdout": "d1971bdbe47372b9124bf5dea74105483c106a26a8aec959182871e60a4529e8",
        "run_record.json": "853d2a0ae327e1c01ce58b9b40c55ec45a859f39fe11fa7cbae0ed12c6e27d2b",
        "cmi_cells_n40.csv": "2b9ad815ba80f111e46c1aac734275eac8e039f86860bb8b7a2bf6fd4d901e21",
        "cmi_summary.csv": "7be5ed7848930f8e07b60ceffed8763afb4a705587111dac3bc03dbdee8d35a2",
    },
    "recalibrate-holdout": {
        "stdout": "ddb264f94befd2915963177af2c6ce62389637badea41d101797ca69ccbc8119",
        "run_record.json": "5446999da784dd74f59e25c820cf5922b7284ca6ac7552a97a35266bf7938e36",
    },
    "recalibrate-reuse": {
        "stdout": "2f6c3d60b32e638f297940621213ea23ad681bd44d1064fc2fe254016ea25dfb",
        "run_record.json": "0c4f3db25518b8819346744e1ed3133d1b1b00b6cd3ec48a19571f4bbfa57667",
    },
}

# The digests above are those of numpy's kernel without AVX-512, glibc's exp, with which
# models._expit has scipy's bits. numpy's AVX-512 kernel moves it by up to 4 ulp
# (tests/test_models.py::STAND_IN_ULPS), and with it these files.
DIGESTS_BY_EXP = {
    "e7549d8a592b": DIGESTS,
    "75bcc0a0cd4d": {
        **DIGESTS,
        "synthetic": {
            **DIGESTS["synthetic"],
            "run_record.json": "8f9733fce296f5b3239c913ddfa296684f3412ed9780147b96a559e9a8b2ae9a",
        },
        "cmi": {
            **DIGESTS["cmi"],
            "run_record.json": "6f27d708165db70830af34040ce7b1926db11463df143caa3d0495e4069d919f",
            "cmi_cells_n100.csv": "86dc24c96fbbbc792889007e2083f467619f3bc94590abf0c10d9ab8332f8539",
            "cmi_cells_n40.csv": "b3314f9a21fd6b96bebf7f0a475071698f509f8145b5712ad4bb49adde015cb2",
            "cmi_summary.csv": "80230d4d2a75079ea8441af44cba5d6f8ff414bd5cc54bb400a901d8ccb2d066",
        },
        "cmi-exhaustive": {
            **DIGESTS["cmi-exhaustive"],
            "cmi_cells_n8.csv": "adb6793d15e879f192e26b750c283a2ed40dba0d1f122a336ab7c8714e634bf0",
        },
        "cmi-uwb": {
            **DIGESTS["cmi-uwb"],
            "cmi_cells_n40.csv": "74a5da4e465b11740b4f94e72dd553d8aa5e59f1225264b6001616a687048f91",
        },
    },
}


# Run -> the bound its record holds.
BOUND_OF = {
    "bounds": "gen_tce",
    "cmi": "gen_ece",
    "cmi-exhaustive": "gen_ece",
    "cmi-uwb": "gen_ece",
    "recalibrate-holdout": "recalib_holdout",
    "recalibrate-reuse": "recalib_reuse",
}


def run(name: str, workdir) -> tuple[dict, dict]:
    """One run's (file name -> sha256 of stdout, each CSV and the record minus
    ``timestamp``) and its parsed record."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        (workdir / "train.csv").write_text(TRAIN_CSV)
        (workdir / "test.csv").write_text(TEST_CSV)
        (workdir / "train.json").write_text(TRAIN_JSON)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*RUNS[name], "--out", "out"])
    assert code == 0, f"{name}: exit code {code}"
    out = workdir / "out"
    record = json.loads((out / "run_record.json").read_text())
    record.pop("timestamp")
    files = {
        "stdout": stdout.getvalue().encode(),
        "run_record.json": json.dumps(record, indent=2, sort_keys=True).encode(),
    }
    files.update((p.name, p.read_bytes()) for p in sorted(out.glob("*.csv")))
    return {f: hashlib.sha256(data).hexdigest() for f, data in files.items()}, record


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run name -> ``run(name)``, each run made once for the module."""
    done = {}

    def get(name):
        if name not in done:
            done[name] = run(name, tmp_path_factory.mktemp(name))
        return done[name]

    return get


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_pinned_digests(name, runs):
    fingerprint = exp_fingerprint()
    assert fingerprint in DIGESTS_BY_EXP, f"no pinned digests for numpy exp {fingerprint}"
    got, want = runs(name)[0], DIGESTS_BY_EXP[fingerprint][name]
    # Each changed file with its new sha256 (None: no longer written), ready to re-pin.
    changed = {f: got.get(f) for f in sorted(got.keys() | want.keys()) if got.get(f) != want.get(f)}
    assert not changed, f"{name}: output changed, new digests {changed}"


def test_digests_without_avx512():
    proc = run_without_avx512(f"{__file__}::test_outputs_match_pinned_digests")
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert f"{len(RUNS)} passed" in proc.stdout


# The numpy packages a run may first import inside itself: numpy.random in a run that
# draws, and numpy.polynomial in synthetic, which integrates. The others import none,
# and no run imports numpy.ma or scipy.
LATE = {
    "synthetic": {"numpy.random", "numpy.polynomial"},
    **dict.fromkeys(["cmi", "cmi-exhaustive", "cmi-uwb", "recalibrate-holdout",
                     "recalibrate-reuse"], {"numpy.random"}),
}


def test_import_and_each_run_load_only_what_they_use(tmp_path):
    # `import calbounds.cli` loads no numpy module that `import numpy` does not: with numpy 2
    # that leaves out numpy.random (~6 MB and ~9 ms), numpy.ma and numpy.polynomial. One
    # process per run, so that no earlier run's imports mask a later run's.
    code = (
        "import contextlib, io, json, sys\n"
        "import numpy\n"
        "alone = set(sys.modules)\n"
        "import calbounds, calbounds.cli\n"
        "loaded = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = calbounds.cli.main([*json.loads(sys.argv[1]), '--out', 'out'])\n"
        "ours = lambda new: sorted(m for m in new if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "print(json.dumps({'code': code, 'at import': ours(loaded - alone),\n"
        "                  'late': ours(set(sys.modules) - loaded)}))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def loaded(name):
        workdir = tmp_path / name
        workdir.mkdir()
        (workdir / "train.csv").write_text(TRAIN_CSV)
        (workdir / "test.csv").write_text(TEST_CSV)
        (workdir / "train.json").write_text(TRAIN_JSON)
        proc = subprocess.run([sys.executable, "-W", "ignore", "-c", code, json.dumps(RUNS[name])],
                              cwd=workdir, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (name, proc.stderr[-2000:])
        return json.loads(proc.stdout)

    with ThreadPoolExecutor(max_workers=2) as pool:
        got = dict(zip(RUNS, pool.map(loaded, RUNS)))
    for name, modules in got.items():
        assert modules["code"] == 0, name
        assert modules["at import"] == [], name
        assert {".".join(m.split(".")[:2]) for m in modules["late"]} <= LATE.get(name, set()), name


@pytest.mark.parametrize("name", RUNS)
def test_recorded_bounds_recompute_exactly(name, runs):
    entries = [r for r in runs(name)[1]["results"] if r["name"].replace("_", "-") in BOUNDS]
    assert {r["name"] for r in entries} == ({BOUND_OF[name]} if name in BOUND_OF else set())
    for entry in entries:
        fn = BOUNDS[entry["name"].replace("_", "-")]
        # Report input keys spell the parameter names in the formula's case (eCMI, I_Delta1).
        given = {key.lower(): value for key, value in entry["inputs"].items()}
        params = inspect.signature(fn).parameters
        report = fn(**{p: given[p.lower()] for p in params if p.lower() in given})
        assert entry == {
            "name": report.name,
            "value": report.value,
            "inputs": {**report.inputs, "variant": report.variant},
        }


def test_json_train_file_gives_the_csv_results(runs):
    assert runs("gap-json")[1]["results"] == runs("gap")[1]["results"]
