"""``build_parser(argv)`` fills in only the subcommand, and under ``bounds`` the leaf, that
``argv`` names, and parses ``argv`` exactly as the full tree does: the same namespace, or
the same exit code and output."""

import contextlib
import inspect
import io

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from calbounds.bounds import BOUNDS
from calbounds.cli import build_parser, main
from test_boundary import command_lines

# Tokens that move argparse's choice of subcommand or leaf, or stop it: flags it does not
# know, names it does not know, the end of options, help and version at every level, lone
# and negative-number dashes, and known names where a value or another name is expected.
MOVERS = ["--bogus", "-x", "bogus", "--", "-h", "--help", "--version", "-", "-1", "",
          "ece", "gap", "bounds", "cmi", "stat-bias", "recalib-holdout"]


def _outcome(parser, argv):
    """(namespace, exit code, stdout, stderr) of parsing ``argv``. The namespace is compared
    by its repr, which tells floats apart bit for bit and a NaN equal to itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = repr(parser.parse_args(argv)), None
        except SystemExit as e:
            namespace, code = None, e.code
    return namespace, code, out.getvalue(), err.getvalue()


@st.composite
def moved_command_lines(draw):
    _, argv = draw(command_lines("scores.csv"))
    for token in draw(st.lists(st.sampled_from(MOVERS), max_size=3)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=list(HealthCheck))
@given(moved_command_lines())
@example([])
@example(["-h"])
@example(["bogus"])
@example(["--bogus", "ece", "scores.csv"])
@example(["--", "ece", "scores.csv"])
@example(["-1", "ece", "scores.csv"])
@example(["ece", "-h"])
@example(["ece", "gap", "--bins", "3"])
@example(["bounds"])
@example(["bounds", "-h"])
@example(["bounds", "-h", "stat-bias"])
@example(["bounds", "bogus", "--bins", "3"])
@example(["bounds", "-", "stat-bias", "--bins", "3", "--n", "100"])
@example(["bounds", "stat-bias", "-h"])
@example(["bounds", "stat-bias", "--bins", "3", "--n", "100", "--out", "gen-ece"])
@example(["gap", "bounds", "stat-bias", "--bins", "2"])
def test_built_for_argv_parses_as_the_full_tree(argv):
    assert _outcome(build_parser(argv), argv) == _outcome(build_parser(), argv)


class _Signatures:
    """Counts ``inspect.signature`` calls: each fills in one ``bounds`` leaf."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = inspect.signature

        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(inspect, "signature", counted)


def test_only_the_named_leaf_is_filled_in(monkeypatch):
    signatures = _Signatures(monkeypatch)
    for argv, calls in ((["ece", "scores.csv"], 0), (["cmi"], 0), (["bounds", "gen-ece"], 1),
                        (["bounds"], len(BOUNDS)), (["bogus"], len(BOUNDS)), (None, len(BOUNDS))):
        signatures.calls = 0
        build_parser(argv)
        assert signatures.calls == calls, argv


def test_main_builds_for_its_argv(monkeypatch, tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("0.2,0\n0.7,1\n0.4,1\n")
    signatures = _Signatures(monkeypatch)
    assert main(["ece", str(scores), "--bins", "2", "--out", str(tmp_path / "o")]) == 0
    assert signatures.calls == 0
    capsys.readouterr()
