"""Seeded CLI outputs stay byte-identical: one sha256 per output file.

Each run goes through ``cli.main`` in-process from a fresh working directory
with relative input paths, so no absolute path reaches the run record. The
digests cover stdout, every CSV, and ``run_record.json`` without its
``timestamp``. A change that moves an output updates its digest here and
states in CHANGES.md which outputs moved and why. The digests hold for one
numpy/scipy build; another BLAS or numpy release may move the last bits of a
float, and then they are re-derived, not loosened.

The same runs also show that every bound a record holds is its bound
function's report, and recomputes exactly from the recorded inputs.
"""

import contextlib
import hashlib
import inspect
import io
import json

import pytest

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
    "synthetic": ["synthetic", "--n-grid", "200,400", "--reps", "2", "--n-mc", "5000", "--seed", "1"],
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
        "stdout": "e27e34bbe8ed1502643598fed4490f20b301948ec8e52e655e002910d188548f",
        "run_record.json": "0a317bb617d304177a111601ca6d5f42eefd061d73da17fd975652f8556b79f6",
        "synthetic_gaps.csv": "83cd44e33659fd07588caf3b1d49763374328da66b1854e9e17d3d8381b22b8d",
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
        "run_record.json": "f04d614dad72e09746e1a653d03598617c89677522cabb033e35ca8db438ed2c",
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
    got, want = runs(name)[0], DIGESTS[name]
    changed = sorted(f for f in got.keys() | want.keys() if got.get(f) != want.get(f))
    assert not changed, f"{name}: output changed in {changed}"


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
