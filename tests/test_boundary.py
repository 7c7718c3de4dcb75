"""The command-line boundary: every command line exits 0 or 2, and an exit 2 ends in one
``error:`` line that names a flag or argument of the command. Never exit 1, never numpy's
words, never a warning on stderr."""

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import calbounds
from calbounds.cli import _BOUND_FLAGS, build_parser, main

SRC = Path(calbounds.__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Sizes that are tiny or that numpy refuses at once, under the ~2 GiB address-space limit
# of the child below, plus non-numbers, float extremes and words.
ALPHABET = ["0", "-1", "1", str(2**31), str(2**59 - 1), str(2**62), str(10**18), str(10**20),
            str(10**400), "nan", "inf", "-inf", "1e-300", "1e308", "-1e3", "", "1e3", "abc"]
NUMPY_WORDS = ("Unable to allocate", "array is too big", "Maximum allowed")
ADDRESS_SPACE = 2 << 30


def _leaves(parser, prefix=()):
    """(subcommand path, parser) of every subcommand and every ``bounds`` leaf."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield prefix, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaves(sub, (*prefix, name))


# Flag -> the library parameter it is passed as, where that is not its destination.
PARAMS = {**{flag: param for param, (flag, _) in _BOUND_FLAGS.items()},
          "--n-grid": "n", "--n-total": "n", "--lr": "learning_rate"}


def _names(parser) -> set[str]:
    """What an error line may name: a flag, a positional argument, a destination, or the
    library parameter a flag maps to. A bound whose formula overflows names its value."""
    names = {"bound value"}
    for action in parser._actions:
        names.update({*action.option_strings, action.dest})
        names.update(PARAMS[f] for f in action.option_strings if f in PARAMS)
    return names - {"help"}


def _base(path, parser, score_file) -> list[list[str]]:
    """Small valid command lines of one subcommand, before the drawn flags."""
    if path[0] == "bounds":
        valid = {"--bins": "3", "--n": "100", "--n-re": "100", "--lipschitz": "1",
                 "--delta": "0.05", "--ecmi": "0.1", "--i1": "0.1", "--i2": "0.1",
                 "--log-n": "1", "--dim": "2", "--l0": "1"}
        return [[*path, *(v for a in parser._actions if a.required
                          for v in (a.option_strings[0], valid[a.option_strings[0]]))]]
    return {
        "ece": [["ece", score_file]],
        "gap": [["gap", score_file, score_file, "--bins", "2"]],
        "synthetic": [["synthetic", "--n-grid", "8", "--reps", "1"]],
        "recalibrate": [
            ["recalibrate", "--variant", "holdout", "--bins", "3", "--n-re", "100",
             "--n-total", "400"],
            ["recalibrate", "--variant", "reuse", "--bins", "3", "--n-total", "400"],
        ],
        "cmi": [["cmi", "--n-grid", "8", "--n-supersamples", "1", "--epochs", "1"]],
    }[path[0]]


_LEAVES = list(_leaves(build_parser()))
# Flags drawn from the alphabet: every integer and float flag, but --epochs, which only buys time.
_NUMERIC = {path: [a.option_strings[0] for a in p._actions
                   if a.option_strings and a.type is not None and a.dest != "epochs"]
            for path, p in _LEAVES}


@st.composite
def command_lines(draw, score_file):
    path, parser = draw(st.sampled_from(_LEAVES))
    argv = list(draw(st.sampled_from(_base(path, parser, score_file))))
    for action in parser._actions:  # the choice and switch flags the base leaves open
        if action.option_strings and action.option_strings[0] not in argv:
            flag = action.option_strings[0]
            if action.choices:
                value = draw(st.sampled_from([None, *action.choices]))
                argv += [] if value is None else [flag, value]
            elif action.nargs == 0 and action.dest not in ("help", "version"):
                argv += [flag] if draw(st.booleans()) else []
    flag = draw(st.sampled_from(_NUMERIC[path]))
    return parser, [*argv, flag, draw(st.sampled_from(ALPHABET))]


def walk_boundary(tmp: str) -> int:
    """Run the property over the whole parser; returns the number of examples run."""
    score_file = os.path.join(tmp, "scores.csv")
    Path(score_file).write_text("".join(f"{i / 63!r},{i % 2}\n" for i in range(64)))
    out = os.path.join(tmp, "out")
    examples = []

    @settings(max_examples=600, deadline=None, derandomize=True, database=None,
              suppress_health_check=list(HealthCheck))
    @given(command_lines(score_file))
    def check(case):
        parser, argv = case
        examples.append(argv)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", out])
        err = err.getvalue()
        assert code in (0, 2), (argv, code, err)
        assert "internal error" not in err and "RuntimeWarning" not in err, (argv, err)
        assert not any(words in err for words in NUMPY_WORDS), (argv, err)
        if code == 2:
            *head, last = err.splitlines()
            assert "error: " in last and not any("error:" in line for line in head), (argv, err)
            named = {n for n in _names(parser) if re.search(rf"(?<![\w-]){re.escape(n)}\b", last)}
            assert named, (argv, err)

    check()
    return len(examples)


def test_every_flag_exits_0_or_2(tmp_path):
    # One child process for every example, its address space capped so that a size
    # numpy does not refuse at once fails fast as a MemoryError instead of swapping.
    code = (
        "import resource, sys, warnings\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))\n"
        "warnings.simplefilter('always')\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import test_boundary\n"
        "print(test_boundary.walk_boundary(sys.argv[1]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert int(proc.stdout) >= 500


# Command lines that numpy refuses at once, before anything is allocated: each exits 2 naming
# the subcommand's size arguments, and no output directory is made.
E18, E20, P62 = str(10**18), str(10**20), str(2**62)
SYN, REC = ["synthetic", "--n-grid", "8"], ["recalibrate", "--variant", "holdout", "--bins", "3",
                                             "--n-re", "100"]
CMI = ["cmi", "--n-grid", "100", "--n-supersamples", "1"]
TOO_BIG = {
    "synthetic reps 10^18": [*SYN, "--reps", E18],
    "synthetic fixed 10^18": [*SYN, "--b-rule", f"fixed:{E18}"],
    "synthetic reps 2^62": [*SYN, "--reps", P62],
    "synthetic fixed 2^62": [*SYN, "--b-rule", f"fixed:{P62}"],
    "synthetic n-grid 10^18": ["synthetic", "--reps", "1", "--n-grid", E18],
    "synthetic n-grid 2^62": ["synthetic", "--reps", "1", "--n-grid", P62],
    "recalibrate n-total 10^18": [*REC, "--n-total", E18],
    "recalibrate n-total 2^62": [*REC, "--n-total", P62],
    "cmi exhaustive n-supersamples 10^18": ["cmi", "--n-grid", "8", "--exhaustive",
                                            "--n-supersamples", E18],
    "cmi n-masks 10^18": [*CMI, "--n-masks", E18],
    "cmi n-masks 2^62": [*CMI, "--n-masks", P62],
    "ece bins 2^62": ["ece", "{scores}", "--bins", P62],
    "ece bins 10^20": ["ece", "{scores}", "--bins", E20],
    "gap bins 2^62": ["gap", "{scores}", "{scores}", "--bins", P62],
    "gap bins 10^20": ["gap", "{scores}", "{scores}", "--bins", E20],
}
SIZES = {
    "synthetic": "--n-grid, --reps, --b-rule",
    "recalibrate": "--input, --n-total, --bins, --n-re",
    "cmi": "--n-grid, --bins, --n-supersamples, --n-masks",
    "ece": "input, --bins",
    "gap": "train, test, --bins",
}


@pytest.mark.parametrize("argv", TOO_BIG.values(), ids=TOO_BIG.keys())
def test_size_past_memory_exits_2_naming_the_sizes(argv, tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("0.3,0\n0.3,0\n0.3,1\n")
    argv = [a.format(scores=scores) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: {argv[0]} does not fit in memory at the sizes given by {SIZES[argv[0]]}\n")
    assert not (tmp_path / "o").exists()
