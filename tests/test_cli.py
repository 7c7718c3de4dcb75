"""Command-line behavior: outputs, exit codes, and byte-level determinism."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from scipy.special import ndtr

import calbounds
from calbounds import CmiExperimentConfig, TrainerConfig, run_cmi_experiment
from calbounds.cli import _BOUND_FLAGS, _POOL_DEFAULTS, build_parser, main

SRC = Path(calbounds.__file__).resolve().parent.parent


def _python(code, *args, timeout=120):
    """Run ``code`` in a fresh interpreter that imports this checkout's calbounds."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


_MAIN = "import sys, calbounds.cli\nsys.exit(calbounds.cli.main(sys.argv[1:]))\n"


@pytest.fixture()
def score_file(tmp_path):
    p = tmp_path / "scores.csv"
    p.write_text("0.3,0\n0.3,0\n0.3,1\n")
    return p


class TestEceCommand:
    def test_prints_value_bins_method(self, score_file, tmp_path, capsys):
        code = main(["ece", str(score_file), "--bins", "1", "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.033333" in out
        assert "bins 1" in out
        assert "method uwb" in out

    @pytest.mark.parametrize("bins", ["abc", "2.0", "0", "-3", ""])
    def test_bad_bins_exit_2_before_loading(self, bins, score_file, tmp_path, capsys, monkeypatch):
        import calbounds.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("loaded the score file before checking --bins")

        monkeypatch.setattr(cli_mod, "load_scores", boom)
        assert main(["ece", str(score_file), "--bins", bins, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: calbounds ece")
        assert f"argument --bins: expected 'auto' or a positive integer, got {bins!r}" in err

    def test_auto_bins_uses_optimal_rule(self, tmp_path, capsys):
        rows = "\n".join(f"0.{i % 9 + 1},{i % 2}" for i in range(4000))
        p = tmp_path / "big.csv"
        p.write_text(rows + "\n")
        code = main(
            ["ece", str(p), "--bins", "auto", "--lipschitz", "1",
             "--out", str(tmp_path / "o")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bins 35" in out

    @pytest.mark.parametrize("L", ["1e100", "1e200"])
    def test_auto_bins_for_a_steep_lipschitz_clamp_to_half_n(self, tmp_path, L):
        # Such an L puts the closed-form rule's cube root past the float guess's
        # reach (1e100) or its square past the float range (1e200).
        p = tmp_path / "k.csv"
        p.write_text("".join(f"{(i % 97) / 97!r},{i % 2}\n" for i in range(1000)))
        proc = _python(_MAIN, "ece", str(p), "--bins", "auto", "--lipschitz", L,
                       "--out", str(tmp_path / "o"), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert " bins 500 " in proc.stdout

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["ece", str(tmp_path / "missing.csv"), "--bins", "2",
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "missing.csv" in err

    def test_writes_run_record(self, score_file, tmp_path):
        out = tmp_path / "record_dir"
        main(["ece", str(score_file), "--bins", "1", "--out", str(out)])
        record = json.loads((out / "run_record.json").read_text())
        assert record["config"]["subcommand"] == "ece"
        assert record["results"][0]["name"] == "ece"
        assert "inputs" in record["results"][0]

    def test_bins_beyond_memory_exits_2(self, score_file, tmp_path):
        # numpy refuses the 10^18 + 1 edges (8 EiB) at once, and nothing is allocated.
        proc = _python(_MAIN, "ece", str(score_file), "--bins", str(10**18),
                       "--out", str(tmp_path / "o"), timeout=60)
        assert (proc.returncode, proc.stderr) == (
            2, "error: ece does not fit in memory at the sizes given by input, --bins\n")
        assert not (tmp_path / "o").exists()


class TestGapCommand:
    def test_identical_files_give_zero(self, score_file, tmp_path, capsys):
        code = main(["gap", str(score_file), str(score_file), "--bins", "2",
                     "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert "ece_gap 0 " in out

    def test_bins_beyond_memory_exits_2(self, score_file, tmp_path):
        proc = _python(_MAIN, "gap", str(score_file), str(score_file), "--bins", str(10**18),
                       "--out", str(tmp_path / "o"), timeout=60)
        assert (proc.returncode, proc.stderr) == (
            2, "error: gap does not fit in memory at the sizes given by train, test, --bins\n")
        assert not (tmp_path / "o").exists()


class TestBoundsCommand:
    def test_recalib_holdout_table_value(self, tmp_path, capsys):
        code = main(["bounds", "recalib-holdout", "--bins", "15", "--n-re", "100",
                     "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert abs(report["value"] - 0.8475) < 0.0005
        assert report["inputs"] == {"B": 15, "n_re": 100}

    def test_recalib_reuse_table_value(self, tmp_path, capsys):
        code = main(["bounds", "recalib-reuse", "--bins", "27", "--n", "20000",
                     "--i1", "0", "--i2", "0", "--out", str(tmp_path / "o")])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(report["value"] - 0.0865) < 0.0003

    def test_negative_mi_exits_2(self, tmp_path, capsys):
        code = main(["bounds", "gen-ece", "--ecmi", "-1", "--bins", "15", "--n", "4000",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_missing_flag_exits_2(self, tmp_path, capsys):
        code = main(["bounds", "stat-bias", "--bins", "15", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "--n" in err

    def test_unknown_bound_exits_2(self, tmp_path):
        assert main(["bounds", "not-a-bound", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["stat-bias", "--bins", str(10**400), "--n", str(10**401)],
         "B and n must lie within the float range (at most 1.8e308)"),
        (["high-prob", "--bins", "15", "--n", str(-10**401), "--delta", "0.05"],
         "n must be at least 1"),
        (["recalib-holdout", "--bins", "15", "--n-re", str(10**400)],
         "n_re must lie within the float range (at most 1.8e308)"),
    ], ids=["stat-bias", "high-prob", "recalib-holdout"])
    def test_integer_beyond_float_range_exits_2(self, argv, message, tmp_path, capsys):
        # The formulas take each count as a float: the bound refuses it, naming the parameter.
        assert main(["bounds", *argv, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()


# Every bound: its flags with values, and the library call they stand for.
BOUND_CASES = {
    "stat-bias": (["--bins", "15", "--n", "100", "--variant", "umb"],
                  lambda: calbounds.stat_bias_bound(15, 100, "umb")),
    "binning-bias": (["--bins", "15", "--n", "4000", "--lipschitz", "1", "--variant", "umb"],
                     lambda: calbounds.binning_bias_bound(15, 4000, 1.0, "umb")),
    "total-bias": (["--bins", "35", "--n", "4000", "--lipschitz", "1", "--variant", "uwb"],
                   lambda: calbounds.total_bias_bound(35, 4000, 1.0, "uwb")),
    "high-prob": (["--bins", "15", "--n", "4000", "--delta", "0.05"],
                  lambda: calbounds.high_prob_bound(15, 4000, 0.05)),
    "gen-ece": (["--ecmi", "0.3", "--bins", "15", "--n", "4000"],
                lambda: calbounds.gen_ece_bound(0.3, 15, 4000)),
    "gen-tce": (["--ecmi", "0.1", "--fcmi", "0.2", "--bins", "15", "--n", "4000",
                 "--lipschitz", "1", "--variant", "umb"],
                lambda: calbounds.gen_tce_bound(0.1, 0.2, 15, 4000, 1.0, "umb")),
    "metric-entropy": (["--bins", "10", "--n", "4000", "--lipschitz", "0.5", "--delta", "0.1",
                        "--log-n", "2"],
                       lambda: calbounds.metric_entropy_bound(10, 4000, 0.5, 0.1, 2.0)),
    "metric-entropy-parametric": (["--bins", "15", "--n", "4000", "--lipschitz", "1",
                                   "--dim", "2", "--l0", "1"],
                                  lambda: calbounds.metric_entropy_bound_parametric(
                                      15, 4000, 1.0, 2, 1.0)),
    "recalib-reuse": (["--i1", "0.1", "--i2", "0.2", "--bins", "27", "--n", "20000"],
                      lambda: calbounds.recalib_reuse_bound(0.1, 0.2, 27, 20000)),
    "recalib-holdout": (["--bins", "15", "--n-re", "100"],
                        lambda: calbounds.recalib_holdout_bound(15, 100)),
}


class TestBoundTable:
    def test_every_bound_has_a_case(self):
        assert set(BOUND_CASES) == set(calbounds.bounds.BOUNDS)

    @pytest.mark.parametrize("name", sorted(BOUND_CASES))
    def test_json_equals_library_report(self, name, tmp_path, capsys):
        flags, call = BOUND_CASES[name]
        assert main(["bounds", name, *flags, "--out", str(tmp_path / "o")]) == 0
        assert json.loads(capsys.readouterr().out) == asdict(call())

    @pytest.mark.parametrize("name", sorted(BOUND_CASES))
    def test_help_lists_only_own_flags(self, name, capsys):
        assert main(["bounds", name, "--help"]) == 0
        options = capsys.readouterr().out.split("options:")[1]
        listed = re.findall(r"^\s+(?:-h, )?(--[\w-]+)", options, re.M)
        own = {f for f in BOUND_CASES[name][0] if f.startswith("--")}
        assert sorted(listed) == sorted(own | {"--help", "--out"})

    def test_flag_set_unchanged(self):
        flags = {f for argv, _ in BOUND_CASES.values() for f in argv if f.startswith("--")}
        assert flags == {"--bins", "--n", "--n-re", "--lipschitz", "--delta", "--ecmi", "--fcmi",
                         "--i1", "--i2", "--log-n", "--dim", "--l0", "--variant"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "stat-bias", "--bins", "15", "--n", "100", "--lipschitz", "3"],
            ["bounds", "high-prob", "--bins", "15", "--n", "4000", "--delta", "0.05",
             "--variant", "umb"],
            # No prefix matching: --n must not be read as --n-re.
            ["bounds", "recalib-holdout", "--bins", "15", "--n-re", "100", "--n", "500"],
            # Every subcommand reports its own unknown flags.
            ["ece", "x.csv", "--bogus", "1"],
            ["gap", "a.csv", "b.csv", "--bins", "3", "--bogus", "1"],
            ["synthetic", "--bogus", "1"],
            ["recalibrate", "--variant", "holdout", "--bins", "3", "--bogus", "1"],
            ["cmi", "--bogus", "1"],
        ],
        # Fixed ids: removing a case renames no other.
        ids=["argv0", "argv1", "argv2", "argv3", "argv4", "argv5", "argv6", "argv7"],
    )
    def test_inapplicable_flag_exits_2(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        command = argv[:2] if argv[0] == "bounds" else argv[:1]
        assert f"usage: calbounds {' '.join(command)} " in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", sorted(BOUND_CASES))
    def test_count_past_float_range_names_its_parameter(self, name, tmp_path, capsys):
        flags, _ = BOUND_CASES[name]
        params = {flag: param for param, (flag, _) in _BOUND_FLAGS.items()}
        counts = [i for i, f in enumerate(flags) if f in ("--bins", "--n", "--n-re", "--dim")]
        assert counts
        for i in counts:
            argv = [*flags[:i + 1], str(2**1024), *flags[i + 2:]]
            assert main(["bounds", name, *argv, "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == (
                f"error: {params[flags[i]]} must lie within the float range (at most 1.8e308)\n")
        assert not (tmp_path / "o").exists()

    def test_subnormal_delta_gives_finite_bound(self, tmp_path, capsys):
        # 1/delta overflows for delta = 1e-320, but -ln(delta) = 736.8 is finite.
        argv = ["bounds", "high-prob", "--bins", "15", "--n", "4000", "--delta", "1e-320",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == math.sqrt(2.0 * (15 * math.log(2.0) - math.log(1e-320)) / 4000)

    def test_optional_fcmi_for_uniform_width(self, tmp_path, capsys):
        argv = ["bounds", "gen-tce", "--ecmi", "0", "--bins", "15", "--n", "4000",
                "--lipschitz", "1", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == asdict(calbounds.gen_tce_bound(0.0, None, 15, 4000, 1.0, "uwb"))

    def test_fcmi_under_uniform_width_exits_2(self, tmp_path, capsys):
        argv = ["bounds", "gen-tce", "--ecmi", "0.1", "--fcmi", "5", "--bins", "10", "--n", "1000",
                "--lipschitz", "1", "--variant", "uwb", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "fcmi applies only to the uniform-mass variant" in capsys.readouterr().err
        assert not (tmp_path / "o" / "run_record.json").exists()


class TestSyntheticCommand:
    def test_emits_csv_and_slope(self, tmp_path, capsys):
        out = tmp_path / "syn"
        code = main(
            ["synthetic", "--beta0", "0.5", "--beta1", "-1.5",
             "--n-grid", "200,800", "--reps", "3",
             "--b-rule", "cube_root", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        assert "slope" in capsys.readouterr().out
        csv = (out / "synthetic_gaps.csv").read_text().splitlines()
        assert csv[0] == "n,rep,B,ece,tce,tce_gap,bound"
        assert len(csv) == 1 + 2 * 3
        for line in csv[1:]:
            n, rep, B, ece, tce, tce_gap, bound = (float(v) for v in line.split(","))
            assert tce_gap == abs(tce - ece) and bound > 0

    def test_grid_point_beyond_memory_exits_2(self, tmp_path):
        # Within numpy's size limit, so only the run's first draws fail: numpy refuses
        # 2n int64 values (8 EiB) at once, and nothing is allocated.
        n = 2**59 - 1
        proc = _python(_MAIN, "cmi", "--n-grid", str(n), "--out", str(tmp_path / "o"),
                       timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("error: cmi does not fit in memory at the sizes given by "
                               "--n-grid, --bins, --n-supersamples, --n-masks\n")
        assert not (tmp_path / "o").exists()

    def test_byte_identical_across_runs(self, tmp_path):
        args = ["synthetic", "--n-grid", "200,400", "--reps", "2",
                "--b-rule", "cube_root", "--seed", "9"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "synthetic_gaps.csv").read_bytes() == (out2 / "synthetic_gaps.csv").read_bytes()

    def test_steep_model_tce(self, tmp_path, capsys):
        # At beta1 = 1e300, f is the step 1{x > 0}, whose TCE is Phi(1) in closed form.
        out = tmp_path / "syn"
        assert main(["synthetic", "--beta1", "1e300", "--n-grid", "1000", "--reps", "1",
                     "--out", str(out)]) == 0
        printed = re.search(r"tce (\S+)", capsys.readouterr().out).group(1)
        record = json.loads((out / "run_record.json").read_text())
        tce = next(r for r in record["results"] if r["name"] == "tce_exact")
        assert printed == f"{ndtr(1.0):.6g}"
        assert abs(tce["value"] - ndtr(1.0)) <= tce["inputs"]["error"] <= 1e-12

    def test_steepest_model_writes_nothing_to_stderr(self, tmp_path):
        # beta1 * x overflows while the test sets are drawn; numpy's warning must not show.
        code = (
            "import sys\n"
            "import calbounds.cli\n"
            "argv = ['synthetic', '--beta1', '1e308', '--n-grid', '100', '--reps', '1',\n"
            "        '--out', sys.argv[1]]\n"
            "sys.exit(calbounds.cli.main(argv))\n"
        )
        proc = _python(code, str(tmp_path / "o"))
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_negative_float_in_exponent_form_is_a_value(self, tmp_path):
        # Python 3.11's argparse alone reads "-1e3" as a flag, but never "--beta1=-1e3".
        records = []
        for name, beta1 in (("spaced", ["--beta1", "-1e3"]), ("joined", ["--beta1=-1e3"])):
            assert main(["synthetic", *beta1, "--n-grid", "100", "--reps", "1",
                         "--out", str(tmp_path / name)]) == 0
            record = json.loads((tmp_path / name / "run_record.json").read_text())
            records.append({k: v for k, v in record.items() if k != "timestamp"})
        assert records[0] == records[1]
        assert records[0]["config"]["beta1"] == -1000.0

    def test_single_point_grid_record_is_strict_json(self, tmp_path, capsys):
        # One grid point has no log-log slope: the NaN is written as null.
        out = tmp_path / "syn"
        assert main(["synthetic", "--n-grid", "1000", "--reps", "1",
                     "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        record = json.loads((out / "run_record.json").read_text(), parse_constant=reject)
        slope = next(r for r in record["results"] if r["name"] == "loglog_slope")
        assert slope["value"] is None


class TestRecalibrateCommand:
    def test_holdout_prints_table_bound(self, tmp_path, capsys):
        code = main(
            ["recalibrate", "--variant", "holdout", "--bins", "15", "--n-re", "100",
             "--n-total", "8100", "--eval-split", "0.49", "--seed", "3",
             "--out", str(tmp_path / "o")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bound 0.847552" in out

    def test_reuse_bound_smaller_than_holdout(self, tmp_path, capsys):
        common = ["--bins", "15", "--n-total", "8100", "--eval-split", "0.49", "--seed", "3"]
        main(["recalibrate", "--variant", "holdout", "--n-re", "100", *common,
              "--out", str(tmp_path / "h")])
        hold = capsys.readouterr().out
        main(["recalibrate", "--variant", "reuse", *common, "--out", str(tmp_path / "r")])
        reuse = capsys.readouterr().out
        hold_bound = float(hold.split("bound ")[1].split()[0])
        reuse_bound = float(reuse.split("bound ")[1].split()[0])
        assert reuse_bound < hold_bound

    def test_infeasible_split_exits_2(self, tmp_path, capsys):
        code = main(
            ["recalibrate", "--variant", "reuse", "--bins", "15", "--n-total", "100",
             "--eval-split", "0.2", "--seed", "3", "--out", str(tmp_path / "o")]
        )
        assert code == 2


class TestCmiCommand:
    def test_emits_summary_and_cells(self, tmp_path, capsys):
        out = tmp_path / "cmi"
        code = main(
            ["cmi", "--n-grid", "60", "--bins", "3", "--n-supersamples", "2",
             "--n-masks", "5", "--epochs", "40", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        summary = (out / "cmi_summary.csv").read_text().splitlines()
        assert summary[0] == "n,B,mean_gap,ecmi_est,bound,method"
        assert len(summary) == 2
        cells = (out / "cmi_cells_n60.csv").read_text().splitlines()
        assert cells[0] == "supersample_idx,mask_idx,statistic_name,value"
        assert len(cells) == 1 + 2 * 5 * 3

    @pytest.mark.parametrize("n", [10**30, 10**90])
    def test_huge_grid_point_exits_2(self, tmp_path, n):
        # Its default B, cube_root_bins(n), is found before the grid point is refused.
        proc = _python(_MAIN, "cmi", "--n-grid", str(n), "--out", str(tmp_path / "o"),
                       timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (f"error: n={n} is too large: a supersample's 2n draws "
                               "would not fit in one numpy array\n")

    def test_byte_identical_across_runs(self, tmp_path):
        args = ["cmi", "--n-grid", "60", "--bins", "3", "--n-supersamples", "2",
                "--n-masks", "5", "--epochs", "40", "--seed", "2"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("cmi_summary.csv", "cmi_cells_n60.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bound_column_dominates_gap_column(self, tmp_path):
        out = tmp_path / "cmi"
        main(["cmi", "--n-grid", "100,400", "--n-supersamples", "2", "--n-masks", "5",
              "--epochs", "60", "--seed", "4", "--out", str(out)])
        rows = (out / "cmi_summary.csv").read_text().splitlines()[1:]
        for row in rows:
            n, B, mean_gap, ecmi_est, bound, method = row.split(",")
            assert float(bound) >= float(mean_gap)

    def test_bound_decreases_along_grid_for_fixed_bins(self, tmp_path):
        out = tmp_path / "cmi"
        main(["cmi", "--n-grid", "100,400", "--bins", "5", "--n-supersamples", "2",
              "--n-masks", "5", "--epochs", "60", "--seed", "4", "--out", str(out)])
        rows = (out / "cmi_summary.csv").read_text().splitlines()[1:]
        bounds = [float(r.split(",")[4]) for r in rows]
        assert bounds[1] < bounds[0]

    @pytest.mark.parametrize("exhaustive, method", [(True, "count"), (False, "ceiling")])
    def test_record_and_summary_name_the_method(self, tmp_path, exhaustive, method):
        # An exhaustive run counts its information and samples no masks, so its record
        # holds no --n-masks; a sampled run reports its ceiling.
        out = tmp_path / "cmi"
        assert main(["cmi", "--n-grid", "8", *(["--exhaustive"] if exhaustive else []),
                     "--n-supersamples", "1", "--epochs", "20", "--seed", "1",
                     "--out", str(out)]) == 0
        record = json.loads((out / "run_record.json").read_text())
        assert ("n_masks" in record["config"]) is not exhaustive
        results = {r["name"]: r for r in record["results"]}
        est = results["ecmi_est"]
        assert est["inputs"] == {"n": 8, "B": 2, "method": method}
        bound = results["gen_ece"]
        assert bound["inputs"]["eCMI"] == max(est["value"], 0.0)
        assert bound["value"] == calbounds.gen_ece_bound(max(est["value"], 0.0), 2, 8).value
        summary = (out / "cmi_summary.csv").read_text().splitlines()
        assert summary[1].split(",")[3:] == [repr(est["value"]), repr(bound["value"]), method]

    def test_k_is_not_an_option(self, tmp_path, capsys):
        assert main(["cmi", "--k", "3", "--out", str(tmp_path / "o")]) == 2
        assert "unrecognized arguments: --k 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestEnvironmentDefaults:
    def test_output_dir_from_env(self, score_file, tmp_path, monkeypatch, capsys):
        target = tmp_path / "env_out"
        monkeypatch.setenv("CALBOUNDS_OUT", str(target))
        assert main(["ece", str(score_file), "--bins", "1"]) == 0
        capsys.readouterr()
        assert (target / "run_record.json").exists()


def _subparsers(parser) -> dict:
    """Subcommand name -> parser, read from the parser's subcommand action."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


# Subcommand -> a command line that parses; the subcommand is replaced before it runs.
MINIMAL_ARGV = {
    "ece": ["ece", "scores.csv", "--bins", "3"],
    "gap": ["gap", "train.csv", "test.csv", "--bins", "3"],
    "bounds": ["bounds", "recalib-holdout", "--bins", "15", "--n-re", "100"],
    "synthetic": ["synthetic"],
    "recalibrate": ["recalibrate", "--variant", "reuse", "--bins", "5"],
    "cmi": ["cmi"],
}


class TestExitCodes:
    def test_internal_error_exits_1(self, score_file, tmp_path, monkeypatch, capsys):
        import calbounds.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli_mod, "ece", boom)
        code = main(["ece", str(score_file), "--bins", "1", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert "internal error" in err

    def test_type_error_is_internal(self, score_file, tmp_path, monkeypatch, capsys):
        import calbounds.cli as cli_mod

        def boom(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli_mod, "ece", boom)
        code = main(["ece", str(score_file), "--bins", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "internal error" in capsys.readouterr().err

    def test_usage_error_exits_2(self, tmp_path, capsys):
        assert main(["ece"]) == 2  # missing positional argument
        capsys.readouterr()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_2(self, lr, tmp_path, capsys):
        assert main(["cmi", "--n-grid", "20", "--lr", lr, "--out", str(tmp_path / "o")]) == 2
        assert "learning_rate must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid", ["1,x", "100.7,200"])
    @pytest.mark.parametrize("subcommand", ["synthetic", "cmi"])
    def test_non_integer_grid_exits_2(self, subcommand, grid, tmp_path, capsys):
        assert main([subcommand, "--n-grid", grid, "--out", str(tmp_path / "o")]) == 2
        message = f"argument --n-grid: expected comma-separated integers, got {grid!r}"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", ["synthetic", "cmi"])
    def test_empty_grid_exits_2(self, subcommand, tmp_path, capsys):
        assert main([subcommand, "--n-grid", ",", "--out", str(tmp_path / "o")]) == 2
        assert "argument --n-grid: expected at least one size" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["recalibrate", "--variant", "reuse", "--bins", "5", "--n-re", "100"],
             "n_re applies only to the holdout variant"),
            (["recalibrate", "--variant", "holdout", "--bins", "5", "--n-re", "100", "--i1", "0"],
             "i_delta1 and i_delta2 apply only to the reuse variant"),
            (["recalibrate", "--variant", "holdout", "--bins", "5", "--n-re", "100", "--i2", "0.2"],
             "i_delta1 and i_delta2 apply only to the reuse variant"),
            (["ece", "{scores}", "--bins", "auto"], "--bins auto requires --lipschitz"),
            (["ece", "{scores}", "--bins", "3", "--lipschitz", "1"],
             "--lipschitz applies only to --bins auto"),
            (["recalibrate", "--input", "{scores}", "--variant", "reuse", "--bins", "1",
              "--beta0", "3", "--n-total", "50"],
             "synthetic-pool flags apply only without --input: --beta0, --n-total"),
            (["recalibrate", "--input", "{scores}", "--variant", "reuse", "--bins", "1",
              "--beta1", "-1.5"],
             "synthetic-pool flags apply only without --input: --beta1"),
            (["cmi", "--n-grid", "8", "--exhaustive", "--n-masks", "256"],
             "flags apply only without --exhaustive: --n-masks"),
            (["cmi", "--n-grid", "8", "--exhaustive", "--n-masks", "10"],
             "flags apply only without --exhaustive: --n-masks"),
        ],
        # Fixed ids: removing a case renames no other.
        ids=[
            "argv0-n_re applies only to the holdout variant",
            "argv1-i_delta1 and i_delta2 apply only to the reuse variant",
            "argv2-i_delta1 and i_delta2 apply only to the reuse variant",
            "argv3---bins auto requires --lipschitz",
            "argv4---lipschitz applies only to --bins auto",
            "argv5-synthetic-pool flags apply only without --input: --beta0, --n-total",
            "argv6-synthetic-pool flags apply only without --input: --beta1",
            "argv8-flags apply only without --exhaustive: --n-masks",
            "argv11-flags apply only without --exhaustive: --n-masks at its default",
        ],
    )
    def test_unused_input_exits_2(self, argv, message, score_file, tmp_path, capsys, monkeypatch):
        import calbounds.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("read a score file before checking the flags")

        monkeypatch.setattr(cli_mod, "load_scores", boom)
        argv = [a.format(scores=score_file) for a in argv]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synthetic", "--beta1", "inf", "--n-grid", "100", "--reps", "1"],
             "beta1 must be finite: inf"),
            (["synthetic", "--beta0", "nan", "--n-grid", "100", "--reps", "1"],
             "beta0 must be finite: nan"),
            (["recalibrate", "--variant", "holdout", "--bins", "5", "--n-re", "100",
              "--beta1", "nan"], "beta1 must be finite: nan"),
            (["recalibrate", "--variant", "reuse", "--bins", "5", "--i1", "nan"],
             "i_delta1 must be nonnegative: nan"),
            (["bounds", "total-bias", "--bins", "35", "--n", "4000", "--lipschitz", "nan"],
             "L must be nonnegative: nan"),
            (["bounds", "gen-ece", "--ecmi", "nan", "--bins", "15", "--n", "4000"],
             "ecmi must be nonnegative: nan"),
            (["bounds", "metric-entropy-parametric", "--bins", "15", "--n", "4000",
              "--lipschitz", "1", "--dim", "2", "--l0", "nan"], "L0 must be positive: nan"),
        ],
        # Fixed ids: removing a case renames no other.
        ids=[
            "argv0-beta1 must be finite: inf",
            "argv1-beta0 must be finite: nan",
            "argv2-beta1 must be finite: nan",
            "argv3-i_delta1 must be nonnegative: nan",
            "argv4-L must be nonnegative: nan",
            "argv5-ecmi must be nonnegative: nan",
            "argv6-L0 must be positive: nan",
        ],
    )
    def test_non_finite_input_is_named(self, argv, message, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n-grid", "8,20", "--exhaustive"],
             "exhaustive mask enumeration is limited to n <= 12"),
            (["--n-grid", "40,4", "--bins", "3"],
             "need n >= 2B training rows per cell, got n=4, B=3"),
            (["--n-grid", f"40,{2**59}", "--bins", "3"],
             f"n={2**59} is too large: a supersample's 2n draws would not fit in one numpy array"),
        ],
        # Fixed ids: removing a case renames no other.
        ids=[
            "argv0-exhaustive mask enumeration is limited to n <= 12",
            "argv1-need n >= 2B training rows per cell, got n=4, B=3",
            "argv2-n too large for numpy",
        ],
    )
    def test_bad_grid_point_exits_2_before_any_run(self, argv, message, tmp_path, capsys,
                                                    monkeypatch):
        import calbounds.cli as cli_mod

        def boom(cfg):
            raise RuntimeError("ran a grid point before checking the whole grid")

        monkeypatch.setattr(cli_mod, "run_cmi_experiment", boom)
        assert main(["cmi", *argv, "--n-supersamples", "1", "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_failed_cmi_run_leaves_no_output_directory(self, tmp_path, capsys, monkeypatch):
        import calbounds.cli as cli_mod

        ran = []

        def second_fails(cfg):
            ran.append(cfg.n)
            if cfg.n == 9:
                raise ValueError("second grid point failed")
            return run_cmi_experiment(cfg)

        monkeypatch.setattr(cli_mod, "run_cmi_experiment", second_fails)
        argv = ["cmi", "--n-grid", "8,9", "--exhaustive", "--n-supersamples", "1", "--epochs", "5"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert ran == [8, 9]
        assert "error: second grid point failed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_directory_as_score_file_exits_2(self, tmp_path, capsys):
        folder = tmp_path / "dir"
        folder.mkdir()
        assert main(["ece", str(folder), "--bins", "3", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", sorted(_subparsers(build_parser())))
    @pytest.mark.parametrize("where", ["under_file", "at_file", "at_dangling_link"])
    def test_unusable_output_exits_2_before_the_run(self, subcommand, where, tmp_path, capsys,
                                                     monkeypatch):
        import calbounds.cli as cli_mod

        def boom(args, record):
            raise RuntimeError("ran the subcommand before checking --out")

        monkeypatch.setattr(cli_mod, f"_cmd_{subcommand}", boom)
        blocker = tmp_path / "f"
        if where == "at_dangling_link":
            blocker.symlink_to(tmp_path / "missing" / "dir")
        else:
            blocker.write_text("")
        out = blocker / "sub" if where == "under_file" else blocker
        assert main([*MINIMAL_ARGV[subcommand], "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: output directory {out}: {blocker} is not")
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [blocker]


    def test_non_utf8_score_file_exits_2_naming_it(self, tmp_path, capsys):
        p = tmp_path / "latin.csv"
        p.write_bytes("0.5,1\n0.25,0 \u0436\n".encode("koi8-r"))
        assert main(["ece", str(p), "--bins", "3", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: 'utf-8' codec can't decode")

    def test_bad_json_value_names_the_file(self, score_file, tmp_path, capsys):
        bad = tmp_path / "test.json"
        bad.write_text('[{"score": 0.5, "label": 1}, {"score": 1e400, "label": 0}]')
        argv = ["gap", str(score_file), str(bad), "--bins", "2", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"error: {bad}: scores must be finite at index 1: inf" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", ["bogus", "fixed:x", "fixed:0"])
    def test_bad_bin_rule_exits_2_before_any_draw(self, rule, tmp_path, capsys, monkeypatch):
        import calbounds.experiments as experiments_mod

        def boom(*args, **kwargs):
            raise RuntimeError("computed the TCE before checking the rule")

        monkeypatch.setattr(experiments_mod, "exact_tce", boom)
        assert main(["synthetic", "--b-rule", rule, "--out", str(tmp_path / "o")]) == 2
        assert f"unknown bin rule {rule!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestParserDefaults:
    """A flag's default is the library default it stands for, type included."""

    def test_cmi_defaults_are_config_defaults(self):
        # --n-masks parses to None, so --exhaustive can tell it given; a sampled run
        # then takes the library's default (TestRunRecordConfig.test_cmi).
        args = build_parser().parse_args(["cmi"])
        cfg = CmiExperimentConfig(n=8, B=2, trainer=TrainerConfig(), seed=0)
        parsed = (args.n_supersamples, args.method, args.lr, args.epochs)
        library = (cfg.n_supersamples, cfg.method, cfg.trainer.learning_rate, cfg.trainer.epochs)
        assert [(type(v), v) for v in parsed] == [(type(v), v) for v in library]
        assert args.n_masks is None

    def test_synthetic_betas_are_pool_defaults(self):
        args = build_parser().parse_args(["synthetic"])
        assert (args.beta0, args.beta1) == (_POOL_DEFAULTS["beta0"], _POOL_DEFAULTS["beta1"])


class TestRunRecordConfig:
    """The record's config is the whole parsed command line except --out."""

    @pytest.fixture()
    def scores(self, tmp_path):
        p = tmp_path / "varied.csv"
        p.write_text("".join(f"{(i % 97) / 97:.4f},{i % 3 == 0:d}\n" for i in range(600)))
        return str(p)

    def _config(self, argv, tmp_path):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 0
        return json.loads((out / "run_record.json").read_text())["config"]

    def test_ece(self, scores, tmp_path, capsys):
        argv = ["ece", scores, "--bins", "auto", "--method", "umb", "--lipschitz", "2"]
        assert self._config(argv, tmp_path) == {
            "subcommand": "ece", "input": scores, "bins": "auto", "method": "umb",
            "lipschitz": 2.0,
        }

    def test_gap(self, scores, tmp_path, capsys):
        argv = ["gap", scores, scores, "--bins", "7", "--method", "umb"]
        assert self._config(argv, tmp_path) == {
            "subcommand": "gap", "train": scores, "test": scores, "bins": 7, "method": "umb",
        }

    def test_bounds_leaf(self, tmp_path, capsys):
        argv = ["bounds", "gen-tce", "--ecmi", "0.1", "--fcmi", "0.2", "--bins", "15",
                "--n", "4000", "--lipschitz", "1.5", "--variant", "umb"]
        assert self._config(argv, tmp_path) == {
            "subcommand": "bounds", "name": "gen-tce", "ecmi": 0.1, "fcmi": 0.2, "B": 15,
            "n": 4000, "L": 1.5, "variant": "umb",
        }

    def test_synthetic(self, tmp_path, capsys):
        argv = ["synthetic", "--beta0", "0.25", "--beta1", "-1", "--n-grid", "200,400",
                "--reps", "2", "--b-rule", "fixed:5", "--seed", "9"]
        assert self._config(argv, tmp_path) == {
            "subcommand": "synthetic", "beta0": 0.25, "beta1": -1.0, "n_grid": [200, 400],
            "reps": 2, "b_rule": "fixed:5", "seed": 9,
        }

    def test_recalibrate(self, scores, tmp_path, capsys):
        # No synthetic pool is drawn, so its flags stay out of the config.
        argv = ["recalibrate", "--input", scores, "--variant", "holdout",
                "--bins", "5", "--n-re", "100", "--eval-split", "0.4", "--seed", "3"]
        assert self._config(argv, tmp_path) == {
            "subcommand": "recalibrate", "input": scores,
            "variant": "holdout", "bins": 5, "n_re": 100, "eval_split": 0.4, "i1": None,
            "i2": None, "seed": 3,
        }

    def test_recalibrate_synthetic(self, tmp_path, capsys):
        argv = ["recalibrate", "--beta0", "0.25", "--beta1", "-1", "--n-total", "900",
                "--variant", "reuse", "--bins", "5", "--eval-split", "0.4", "--i1", "0.1",
                "--i2", "0.2", "--seed", "3"]
        assert self._config(argv, tmp_path) == {
            "subcommand": "recalibrate", "input": None, "beta0": 0.25,
            "beta1": -1.0, "n_total": 900, "variant": "reuse", "bins": 5, "n_re": None,
            "eval_split": 0.4, "i1": 0.1, "i2": 0.2, "seed": 3,
        }

    def test_recalibrate_synthetic_defaults(self, tmp_path, capsys):
        argv = ["recalibrate", "--variant", "holdout", "--bins", "5", "--n-re", "100"]
        config = self._config(argv, tmp_path)
        assert (config["beta0"], config["beta1"], config["n_total"]) == (0.5, -1.5, 8000)

    def test_cmi(self, tmp_path, capsys):
        argv = ["cmi", "--n-grid", "8", "--bins", "2", "--n-supersamples", "1",
                "--n-masks", "4", "--method", "uwb",
                "--lr", "0.25", "--epochs", "20", "--seed", "4"]
        assert self._config(argv, tmp_path) == {
            "subcommand": "cmi", "n_grid": [8], "bins": 2, "n_supersamples": 1, "n_masks": 4,
            "method": "uwb", "exhaustive": False, "lr": 0.25, "epochs": 20, "seed": 4,
        }
        argv = ["cmi", "--n-grid", "8", "--bins", "2", "--n-supersamples", "1", "--exhaustive",
                "--epochs", "20", "--seed", "4"]
        assert self._config(argv, tmp_path / "exhaustive") == {
            "subcommand": "cmi", "n_grid": [8], "bins": 2, "n_supersamples": 1,
            "method": "umb", "exhaustive": True, "lr": 0.5, "epochs": 20, "seed": 4,
        }
        argv = ["cmi", "--n-grid", "8", "--bins", "2", "--n-supersamples", "1", "--epochs", "20"]
        config = self._config(argv, tmp_path / "sampled")
        assert config["n_masks"] == 10

    @pytest.mark.parametrize(
        "argv",
        [
            ["ece", "{scores}", "--bins", "3", "--seed", "1"],
            ["gap", "{scores}", "{scores}", "--bins", "3", "--seed", "1"],
            ["bounds", "stat-bias", "--bins", "15", "--n", "100", "--seed", "1"],
            ["gap", "{scores}", "{scores}", "--bins", "auto"],
        ],
        # Fixed ids: removing a case renames no other.
        ids=["argv0", "argv1", "argv2", "argv3"],
    )
    def test_rejected_flags_exit_2_without_record(self, argv, scores, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([a.format(scores=scores) for a in argv] + ["--out", str(out)]) == 2
        assert not (out / "run_record.json").exists()
