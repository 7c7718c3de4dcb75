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
        "stdout": "171ab2aae9322132fb2435e23ffb8a6e70ac8682c07988ebc09269635936a712",
        "run_record.json": "d13d6bed994ecb2b6c2396a227210af7ebc3af9136f75c737e65ac81c3d18ed0",
        "cmi_cells_n100.csv": "587711040ff1334f904d190721976024259418178c356aa37dc9663d01cfbe32",
        "cmi_cells_n40.csv": "888504dcbdf91269265137a5ecd82929451fc60651b4ff78c92df32bd4516910",
        "cmi_summary.csv": "e76046247a496b53cc508a0e16189a258d9f67991015e9814c4653653a500ec3",
    },
    "cmi-exhaustive": {
        "stdout": "fe6eb182a4596be59b33894be1cbe51678107a2c48bb8c5bb79fb1d213bf7655",
        "run_record.json": "4019d0837f2e0eec27d15f76a5ebe103b77896a46b3c8bb215fb511416ffc09d",
        "cmi_cells_n8.csv": "c7e96de32b261628e440e14e035cd637307ae52269b9c7501f457a54f68a5d7b",
        "cmi_summary.csv": "acb043d09d0298a8b9c5746907e28aad645287e7040f3594811ffe3cd7c3611c",
    },
    "cmi-uwb": {
        "stdout": "7bc1693535f7fb7a8df548f50a07fa60745e14f1d6159fe02eb84fe6ba7282b8",
        "run_record.json": "4a83bae1bcac4361655d6c7c7ddc66df32219409dff489eb0d747fcfb1d49105",
        "cmi_cells_n40.csv": "2b9ad815ba80f111e46c1aac734275eac8e039f86860bb8b7a2bf6fd4d901e21",
        "cmi_summary.csv": "aaafa63fe5f7fd60d68029bb1740bb9d7d6a6d0decbacb091353be26ddf04625",
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
            "run_record.json": "c52577b6738ef865da8a19b7df16860b8df6cd41f418f8747eed9c3278f10a97",
            "cmi_cells_n100.csv": "86dc24c96fbbbc792889007e2083f467619f3bc94590abf0c10d9ab8332f8539",
            "cmi_cells_n40.csv": "b3314f9a21fd6b96bebf7f0a475071698f509f8145b5712ad4bb49adde015cb2",
            "cmi_summary.csv": "973421fdf2b059893b323cdb43a718d6d017d9e193248615d85ee3c3e3aeebf5",
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
    changed = sorted(f for f in got.keys() | want.keys() if got.get(f) != want.get(f))
    assert not changed, f"{name}: output changed in {changed}"


def test_digests_without_avx512():
    proc = run_without_avx512(f"{__file__}::test_outputs_match_pinned_digests")
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert f"{len(RUNS)} passed" in proc.stdout


def test_runs_import_neither_scipy_nor_a_numpy_module(tmp_path):
    # scipy.special cost most of every process's start-up; the package's stand-ins are numpy.
    # A numpy module first imported inside a run would be a lazy import timed as its work.
    code = (
        "import contextlib, io, json, os, sys\n"
        "import calbounds.cli\n"
        "spec = json.load(sys.stdin)\n"
        "loaded = set(sys.modules)\n"
        "for name, argv in spec['runs'].items():\n"
        "    os.mkdir(name)\n"
        "    os.chdir(name)\n"
        "    for file, text in spec['files'].items():\n"
        "        with open(file, 'w') as f:\n"
        "            f.write(text)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert calbounds.cli.main([*argv, '--out', 'out']) == 0, name\n"
        "    os.chdir('..')\n"
        "late = [m for m in sys.modules if m not in loaded and m.split('.')[0] == 'numpy']\n"
        "print(json.dumps({'scipy': [m for m in sys.modules if m.split('.')[0] == 'scipy'],\n"
        "                  'late numpy': sorted(late)}))\n"
    )
    files = {"train.csv": TRAIN_CSV, "test.csv": TEST_CSV, "train.json": TRAIN_JSON}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", code], cwd=tmp_path, env=env,
                          input=json.dumps({"runs": RUNS, "files": files}),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"scipy": [], "late numpy": []}


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
