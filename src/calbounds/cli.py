"""Command-line entry points.

Subcommands: ``ece`` (binned calibration error of a score file), ``gap``
(train/test ECE difference of two files), ``bounds <name>`` (evaluate a
named closed-form bound; its flags are the bound function's parameters),
``synthetic`` (scaling-law experiment), ``recalibrate``
(histogram recalibration with its bound), and ``cmi`` (supersample
mask-information experiment over an n-grid).

``build_parser()`` builds every subcommand's arguments; ``main`` builds only the
named subcommand's, and under ``bounds`` the named leaf's (``build_parser(argv)``),
with every message and help text unchanged.

A score file is JSON when its text starts with ``[`` or ``{``, else CSV.
``main`` checks that the output directory (``--out``, else $CALBOUNDS_OUT, else
./runs) can be made before the subcommand runs, and writes the run-record JSON
and any CSV tables there only after it succeeds. The record's config is the
parsed command line minus ``--out``, and minus the flags the run never reads:
the synthetic-pool flags of ``recalibrate --input`` and ``--n-masks`` of
``cmi --exhaustive``. Otherwise those flags carry the values used.
Exit codes: 0 success, 1 internal error, 2 usage or precondition error, such
as a flag the run cannot use or a path that cannot be read or written. A run
that does not fit in memory exits 2 too, naming the size arguments its
subcommand declares as ``sizes``; the bound functions themselves refuse a
count past the float range. Printed floats carry 6 significant digits; data
files keep full precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import os
import re
import sys
import typing
from pathlib import Path

from . import __version__
from .binning import UMB, UWB, uwb_scheme, umb_scheme
from .bounds import BOUNDS, gen_ece_bound
from .data import RunRecord, load_scores
from .experiments import run_recalibration, run_synthetic_experiment, scored_synthetic_dataset
from .metrics import cube_root_bins, ece, ece_gap, optimal_bins
from .mi import STATISTICS, CmiExperimentConfig, run_cmi_experiment
from .models import LIPSCHITZ_GRID, SyntheticModel, TrainerConfig


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _check_out(out: Path) -> None:
    """Fail unless the nearest existing path of ``out`` is a writable directory."""
    existing = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise ValueError(f"output directory {out}: {existing} is not a writable directory")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _bins_arg(text: str) -> str:
    """``auto`` or a positive integer, returned as given."""
    if text == "auto" or (text.isascii() and text.isdigit() and int(text) >= 1):
        return text
    raise argparse.ArgumentTypeError(f"expected 'auto' or a positive integer, got {text!r}")


def _scheme_for(args, dataset):
    if args.bins == "auto":
        B = optimal_bins(len(dataset), args.lipschitz, args.method)
    else:
        B = int(args.bins)
    return uwb_scheme(B) if args.method == UWB else umb_scheme(dataset.scores, B)


# Each _cmd_* runs one subcommand, adds its results to the run record and
# returns its CSV tables as {file name: (header, rows)}. `main` builds the
# record from the parsed flags and writes the tables and the record.


def _cmd_ece(args, record: RunRecord) -> dict:
    if (args.bins == "auto") != (args.lipschitz is not None):
        raise ValueError("--bins auto requires --lipschitz" if args.lipschitz is None
                         else "--lipschitz applies only to --bins auto")
    dataset = load_scores(args.input)
    scheme = _scheme_for(args, dataset)
    value = ece(dataset, scheme)
    print(f"ece {_fmt(value.value)} bins {scheme.B} method {scheme.method}")
    record.add(
        "ece", value.value, B=scheme.B, method=scheme.method, n_e=len(dataset),
        edges=scheme.edges,
    )
    return {}


def _cmd_gap(args, record: RunRecord) -> dict:
    d_train = load_scores(args.train)
    d_test = load_scores(args.test)
    scheme = _scheme_for(args, d_train)
    gap = ece_gap(d_train, d_test, scheme)
    print(
        f"ece_gap {_fmt(gap.value)} test {_fmt(gap.components[0])} "
        f"train {_fmt(gap.components[1])} bins {scheme.B} method {scheme.method}"
    )
    record.add("ece_gap", gap.value, components=list(gap.components), B=scheme.B)
    return {}


# Bound parameter -> (flag, extra argparse keywords). A parameter is a
# required flag unless this table gives it a default.
_BOUND_FLAGS = {
    "B": ("--bins", {}),
    "n": ("--n", {}),
    "n_re": ("--n-re", {}),
    "L": ("--lipschitz", {}),
    "delta": ("--delta", {}),
    "ecmi": ("--ecmi", {}),
    "fcmi": ("--fcmi", {"default": None}),
    "i_delta1": ("--i1", {}),
    "i_delta2": ("--i2", {}),
    "logN": ("--log-n", {"help": "log covering number at radius delta/B"}),
    "d": ("--dim", {"help": "parametric class dimension"}),
    "L0": ("--l0", {"help": "parametric class Lipschitz constant"}),
    "variant": ("--variant", {"choices": [UWB, UMB], "default": UWB}),
}


class _Parser(argparse.ArgumentParser):
    """Reports unknown flags itself, with its own usage line, not the root parser's, and
    reads an argument that starts with a minus and a digit, such as ``-1e3``, as a value
    like ``-2``, not as a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_common(p) -> None:
    p.add_argument("--out", default=None, help="output directory (default $CALBOUNDS_OUT or ./runs)")


def _add_bound_args(fn, p, words) -> None:
    """The flags of a ``bounds <name>`` parser: the bound's parameters."""
    params = inspect.signature(fn, eval_str=True).parameters.values()
    for param in params:
        flag, extra = _BOUND_FLAGS[param.name]
        # `float | None` takes floats; None stays reachable only as a default.
        types = [t for t in typing.get_args(param.annotation) if t is not type(None)]
        kind = types[0] if types else param.annotation
        p.add_argument(flag, dest=param.name, type=kind, required="default" not in extra, **extra)
    _add_common(p)
    counts = tuple(_BOUND_FLAGS[q.name][0] for q in params if q.annotation is int)
    p.set_defaults(func=_cmd_bounds, bound=fn, sizes=counts)


def _cmd_bounds(args, record: RunRecord) -> dict:
    params = inspect.signature(args.bound).parameters
    report = args.bound(**{p: getattr(args, p) for p in params})
    print(json.dumps(dataclasses.asdict(report), sort_keys=True))
    record.add(report.name, report.value, **report.inputs, variant=report.variant)
    return {}


def _parse_grid(text: str) -> list[int]:
    try:
        grid = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if not grid:
        raise argparse.ArgumentTypeError(f"expected at least one size, got {text!r}")
    return grid


def _cmd_synthetic(args, record: RunRecord) -> dict:
    result = run_synthetic_experiment(
        args.beta0, args.beta1, args.n_grid, args.reps, args.b_rule, args.seed
    )
    tce = result.tce.value
    per_n = zip(result.n_grid, result.bins, result.bounds, result.ece.tolist())
    gaps = [[n, rep, B, e, tce, abs(tce - e), bound]
            for n, B, bound, row in per_n for rep, e in enumerate(row)]
    print(
        f"slope {_fmt(result.slope)} tce {_fmt(result.tce.value)} "
        f"lipschitz {_fmt(result.lipschitz)}"
    )
    record.add("loglog_slope", result.slope, n_grid=args.n_grid, reps=args.reps)
    record.add(
        "tce_exact", result.tce.value, error=result.tce.error, beta0=args.beta0, beta1=args.beta1,
    )
    record.add("lipschitz", result.lipschitz, grid=LIPSCHITZ_GRID)
    return {"synthetic_gaps.csv": (["n", "rep", "B", "ece", "tce", "tce_gap", "bound"], gaps)}


# The synthetic pool's flags and their defaults: `synthetic` takes its betas from here,
# and `recalibrate` applies all three only when no --input is given.
_POOL_DEFAULTS = {"beta0": 0.5, "beta1": -1.5, "n_total": 8000}


def _cmd_recalibrate(args, record: RunRecord) -> dict:
    if args.input:
        given = [f"--{k.replace('_', '-')}" for k in _POOL_DEFAULTS if getattr(args, k) is not None]
        if given:
            raise ValueError(f"synthetic-pool flags apply only without --input: {', '.join(given)}")
        for unused in _POOL_DEFAULTS:  # no synthetic pool is drawn
            del record.config[unused]
        pool = load_scores(args.input)
    else:
        config = record.config
        for k, default in _POOL_DEFAULTS.items():
            if config[k] is None:
                config[k] = default
        model = SyntheticModel(config["beta0"], config["beta1"])
        pool = scored_synthetic_dataset(model, config["n_total"], args.seed, 7)
    result = run_recalibration(
        pool,
        variant=args.variant,
        B=args.bins,
        eval_split=args.eval_split,
        seed=args.seed,
        n_re=args.n_re,
        i_delta1=args.i1,
        i_delta2=args.i2,
    )
    bound = result.bound
    print(
        f"variant {args.variant} bins {args.bins} tce_recal {_fmt(result.tce_recalibrated)} "
        f"ece_raw {_fmt(result.ece_raw)} bound {_fmt(bound.value)}"
    )
    record.add(
        "tce_recalibrated", result.tce_recalibrated,
        B=args.bins, n_fit=result.n_fit, n_test=result.n_test, variant=args.variant,
    )
    record.add("ece_raw", result.ece_raw, B=args.bins, n_test=result.n_test)
    record.add(bound.name, bound.value, **bound.inputs, variant=bound.variant)
    return {}


def _cmd_cmi(args, record: RunRecord) -> dict:
    n_masks = record.config.pop("n_masks")  # as given, or None
    if args.exhaustive and n_masks is not None:  # every mask is enumerated, none sampled
        raise ValueError("flags apply only without --exhaustive: --n-masks")
    sampling = {} if args.exhaustive else {
        "n_masks": CmiExperimentConfig.n_masks if n_masks is None else n_masks}
    record.config.update(sampling)  # an exhaustive record omits the flag
    trainer = TrainerConfig(args.lr, args.epochs)
    cfgs = [  # every grid point is checked before the first run
        CmiExperimentConfig(
            n=n, B=args.bins if args.bins is not None else cube_root_bins(n), trainer=trainer,
            seed=args.seed, n_supersamples=args.n_supersamples, method=args.method,
            exhaustive=args.exhaustive, **sampling,
        )
        for n in args.n_grid
    ]
    results = [run_cmi_experiment(cfg) for cfg in cfgs]  # all before any line is printed
    tables, summary_rows = {}, []
    for cfg, result in zip(cfgs, results):
        est = result.ecmi_est
        bound = gen_ece_bound(est.clamped, cfg.B, cfg.n)
        summary_rows.append([cfg.n, cfg.B, result.mean_gap, est.value, bound.value, est.method])
        tables[f"cmi_cells_n{cfg.n}.csv"] = (
            ["supersample_idx", "mask_idx", "statistic_name", "value"],
            [
                [s_idx, m_idx, name, value]
                for s_idx, cells in enumerate(result.stats.tolist())
                for m_idx, cell in enumerate(cells)
                for name, value in zip(STATISTICS, cell)
            ],
        )
        print(
            f"n {cfg.n} bins {cfg.B} mean_gap {_fmt(result.mean_gap)} "
            f"ecmi {_fmt(est.value)} bound {_fmt(bound.value)}"
        )
        record.add("mean_gap", result.mean_gap, n=cfg.n, B=cfg.B)
        record.add("ecmi_est", est.value, n=cfg.n, B=cfg.B, method=est.method)
        record.add(bound.name, bound.value, **bound.inputs, variant=bound.variant)
    tables["cmi_summary.csv"] = (["n", "B", "mean_gap", "ecmi_est", "bound", "method"], summary_rows)
    return tables


def _add_ece(p, words) -> None:
    p.add_argument("input", help="CSV or JSON score file")
    p.add_argument("--bins", type=_bins_arg, default="auto",
                   help="bin count, or 'auto' for the optimal rule")
    p.add_argument("--method", choices=[UWB, UMB], default=UWB)
    p.add_argument("--lipschitz", type=float, default=None, help="L for the auto bin rule")
    _add_common(p)
    p.set_defaults(func=_cmd_ece, sizes=("input", "--bins"))


def _add_gap(p, words) -> None:
    p.add_argument("train")
    p.add_argument("test")
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--method", choices=[UWB, UMB], default=UWB)
    _add_common(p)
    p.set_defaults(func=_cmd_gap, sizes=("train", "test", "--bins"))


def _add_bounds(p, words) -> None:
    leaves = {}
    for name, fn in BOUNDS.items():
        doc = inspect.getdoc(fn)
        keywords = {"help": doc.splitlines()[0], "description": doc, "allow_abbrev": False,
                    "formatter_class": argparse.RawDescriptionHelpFormatter}
        leaves[name] = (keywords, functools.partial(_add_bound_args, fn))
    _add_subparsers(p, "name", leaves, words, metavar="name")


def _add_synthetic(p, words) -> None:
    p.add_argument("--beta0", type=float, default=_POOL_DEFAULTS["beta0"])
    p.add_argument("--beta1", type=float, default=_POOL_DEFAULTS["beta1"])
    p.add_argument("--n-grid", type=_parse_grid, default="1000,3162,10000,31623,100000",
                   help="comma-separated test-set sizes")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--b-rule", default="optimal", help="optimal | cube_root | fixed:K")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_synthetic, sizes=("--n-grid", "--reps", "--b-rule"))


def _add_recalibrate(p, words) -> None:
    p.add_argument("--input", default=None, help="score file; omit to use the synthetic family")
    for name, kind in (("beta0", float), ("beta1", float), ("n_total", int)):
        p.add_argument(f"--{name.replace('_', '-')}", type=kind, default=None,
                       help=f"synthetic pool (default {_POOL_DEFAULTS[name]})")
    p.add_argument("--variant", choices=["holdout", "reuse"], required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--n-re", dest="n_re", type=int, default=None, help="holdout variant only")
    p.add_argument("--eval-split", type=float, default=0.5)
    p.add_argument("--i1", type=float, default=None, help="reuse variant only (default 0)")
    p.add_argument("--i2", type=float, default=None, help="reuse variant only (default 0)")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_recalibrate, sizes=("--input", "--n-total", "--bins", "--n-re"))


def _add_cmi(p, words) -> None:
    p.add_argument("--n-grid", type=_parse_grid, default="100,500,2000")
    p.add_argument("--bins", type=int, default=None, help="bin count (default: cube-root rule)")
    p.add_argument("--n-supersamples", type=int, default=CmiExperimentConfig.n_supersamples)
    # None: the run takes CmiExperimentConfig's default
    p.add_argument("--n-masks", type=int, default=None, help="not with --exhaustive")
    p.add_argument("--method", choices=[UWB, UMB], default=CmiExperimentConfig.method)
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate all 2^n masks (n <= 12) and count each statistic's entropy")
    p.add_argument("--lr", type=float, default=TrainerConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=TrainerConfig.epochs)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_cmi, sizes=("--n-grid", "--bins", "--n-supersamples", "--n-masks"))


# Subcommand -> (add_parser keywords, the function that adds its arguments).
_SUBCOMMANDS = {
    "ece": ({"help": "binned calibration error of a score file"}, _add_ece),
    "gap": ({"help": "ECE gap between a train and a test score file"}, _add_gap),
    "bounds": ({"help": "evaluate a named closed-form bound"}, _add_bounds),
    "synthetic": ({"help": "TCE-gap scaling experiment on the synthetic family"}, _add_synthetic),
    "recalibrate": ({"help": "histogram recalibration with its bound"}, _add_recalibrate),
    "cmi": ({"help": "supersample mask-information experiment"}, _add_cmi),
}


def _add_subparsers(parser, dest: str, table: dict, words: list[str], **kwargs) -> None:
    """Register every parser of ``table`` under ``parser``, and add the arguments of the
    one ``words[0]`` names, or of all when it names none.

    ``words`` are the command line's tokens from here on that do not start with ``-``.
    No parser above a leaf has an option that takes a value, so argparse picks the
    first of them, unless it reads a token that starts with ``-`` as a positional
    first (``-``, ``-1``, ``--`` or a token after it). Such a token names nothing in
    ``table``, and argparse's error then lists only the registered names. The named
    parser is passed ``words[1:]``.
    """
    action = parser.add_subparsers(dest=dest, required=True, **kwargs)
    named = words[0] if words and words[0] in table else None
    for name, (keywords, add) in table.items():
        p = action.add_parser(name, **keywords)
        if named in (None, name):
            add(p, words[1:] if named else [])


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The ``calbounds`` parser; for an ``argv``, only as much of it as parsing ``argv`` reads.

    Without ``argv``, every subcommand and every ``bounds`` leaf gets its arguments.
    With one, only the subcommand that ``argv`` names gets them, and under ``bounds``
    only the leaf it names. The other subcommands and leaves are registered by name
    and help line, all that argparse's messages show of them, and ``bounds`` gets no
    leaves unless ``argv`` names it. Where ``argv`` names no known subcommand, or no
    known leaf after ``bounds``, that level is built in full. Either way
    ``parse_args(argv)`` gives the namespace, or the output and exit code, of the
    full tree.
    """
    parser = _Parser(
        prog="calbounds",
        description="Binned calibration error, bias bounds, recalibration, and CMI experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    words = [] if argv is None else [a for a in argv if not a.startswith("-")]
    _add_subparsers(parser, "subcommand", _SUBCOMMANDS, words, parser_class=_Parser)
    return parser


# numpy's refusals of an array past its size limit, which it raises as ValueError.
_NUMPY_TOO_BIG = ("array is too big", "Maximum allowed size exceeded",
                  "Maximum allowed dimension exceeded")


def main(argv=None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and return its exit code.
    It parses ``argv`` with ``build_parser(argv)``, which builds only what ``argv`` names."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 2
    out = Path(args.out or os.environ.get("CALBOUNDS_OUT", "runs"))
    record = RunRecord({k: v for k, v in vars(args).items()
                        if k not in ("func", "bound", "sizes", "out")})
    try:
        _check_out(out)
        tables = args.func(args, record)
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            _write_csv(out / name, header, rows)
        record.save(out)
        return 0
    except (ValueError, OSError, MemoryError) as e:
        if isinstance(e, MemoryError) or str(e).startswith(_NUMPY_TOO_BIG):
            sizes = ", ".join(args.sizes)
            e = f"{args.subcommand} does not fit in memory at the sizes given by {sizes}"
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal failure
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
