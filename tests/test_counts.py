"""Every public count parameter is checked the same way: an int or numpy integer, not a
bool, of at least its minimum. A float is refused, never truncated. A bound's counts must
also lie within the float range."""

import inspect

import numpy as np
import pytest

from calbounds import (
    CmiExperimentConfig,
    ScoredDataset,
    SyntheticModel,
    TrainerConfig,
    cube_root_bins,
    fit_recalibrator,
    ksg_mixed_mi,
    mc_tce,
    optimal_bins,
    plugin_mi,
    sample_synthetic,
    umb_scheme,
    uwb_scheme,
)
from calbounds.bounds import BOUNDS
from calbounds.experiments import run_recalibration, run_synthetic_experiment
from calbounds.rng import child_seed, stream

# Valid arguments of every bound parameter; each bound takes its own subset.
BOUND_ARGS = {
    "B": 10, "n": 1000, "n_re": 1000, "d": 2, "L": 1.0, "delta": 0.05, "ecmi": 0.1,
    "fcmi": None, "i_delta1": 0.1, "i_delta2": 0.1, "logN": 1.0, "L0": 1.0, "variant": "uwb",
}
MODEL = SyntheticModel(0.5, -1.5)
SCORES = np.linspace(0.0, 1.0, 100)
DATASET = ScoredDataset(SCORES, np.tile([0, 1], 50))
VALUES, LABELS = np.linspace(0.0, 1.0, 40), np.tile([0, 1], 20)
CMI = {"n": 20, "B": 2, "trainer": TrainerConfig(), "seed": 0, "n_supersamples": 5,
       "n_masks": 10}


def _bound_cases():
    for name, fn in BOUNDS.items():
        params = inspect.signature(fn, eval_str=True).parameters
        args = {p: BOUND_ARGS[p] for p in params}
        for param in params.values():
            if param.annotation is int:
                yield (f"{name} {param.name}", param.name, 1, BOUND_ARGS[param.name],
                       lambda v, fn=fn, args=args, p=param.name: fn(**{**args, p: v}))


# (id, name in the message, least, a valid value, call with the count in place)
CASES = [
    *_bound_cases(),
    ("uwb_scheme B", "B", 1, 10, lambda v: uwb_scheme(v)),
    ("umb_scheme B", "B", 1, 10, lambda v: umb_scheme(SCORES, v)),
    ("fit_recalibrator B", "B", 1, 10, lambda v: fit_recalibrator(DATASET, v)),
    ("cube_root_bins n", "n", 1, 27, lambda v: cube_root_bins(v)),
    ("optimal_bins n", "n", 8, 100, lambda v: optimal_bins(v, 1.0, "umb")),
    ("mc_tce n_mc", "n_mc", 1, 100, lambda v: mc_tce(MODEL, v, 0)),
    ("mc_tce seed", "seed", 0, 3, lambda v: mc_tce(MODEL, 100, v)),
    ("sample_synthetic n", "n", 1, 10, lambda v: sample_synthetic(v, stream(0))),
    ("TrainerConfig epochs", "epochs", 1, 10, lambda v: TrainerConfig(epochs=v)),
    ("ksg_mixed_mi k", "k", 1, 3, lambda v: ksg_mixed_mi(VALUES, LABELS, k=v)),
    ("plugin_mi bins", "bins", 2, 4, lambda v: plugin_mi(VALUES, LABELS, bins=v)),
    *[(f"CmiExperimentConfig {name}", name, 1, CMI[name],
       lambda v, name=name: CmiExperimentConfig(**{**CMI, name: v}))
      for name in ("n", "B", "n_supersamples", "n_masks")],
    ("run_synthetic_experiment reps", "reps", 1, 1,
     lambda v: run_synthetic_experiment(0.5, -1.5, [100], v, "cube_root", 0)),
    ("run_synthetic_experiment grid size", "n_grid[1]", 8, 200,
     lambda v: run_synthetic_experiment(0.5, -1.5, [100, v], 1, "cube_root", 0)),
    ("run_synthetic_experiment seed", "seed", 0, 3,
     lambda v: run_synthetic_experiment(0.5, -1.5, [100], 1, "cube_root", v)),
    ("run_recalibration B", "B", 1, 5,
     lambda v: run_recalibration(DATASET, "holdout", v, 0.5, 0, n_re=40)),
    ("run_recalibration n_re", "n_re", 1, 40,
     lambda v: run_recalibration(DATASET, "holdout", 5, 0.5, 0, n_re=v)),
    ("stream seed", "seed", 0, 3, lambda v: stream(v, 1)),
    ("stream path", "path[1]", 0, 2, lambda v: stream(0, 1, v)),
    ("child_seed seed", "seed", 0, 3, lambda v: child_seed(v, 1)),
    ("child_seed path", "path[0]", 0, 2, lambda v: child_seed(0, v)),
]


@pytest.mark.parametrize("bad", ["float", "bool", "below"])
@pytest.mark.parametrize(
    "name, least, call", [case[1:3] + case[4:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_bad_count_is_named(name, least, call, bad):
    if bad == "below":
        value, message = least - 1, f"{name} must be at least {least}"
    else:
        value = 2.5 if bad == "float" else True
        message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError) as e:
        call(value)
    assert str(e.value) == message


BOUND_COUNTS = list(_bound_cases())


@pytest.mark.parametrize("value", [2**1024, 10**400], ids=["2^1024", "10^400"])
@pytest.mark.parametrize(
    "name, call", [(case[1], case[4]) for case in BOUND_COUNTS], ids=[c[0] for c in BOUND_COUNTS]
)
def test_bound_count_past_float_range_is_named(name, call, value):
    # Every formula takes its counts as floats, so a count that no float holds is refused.
    with pytest.raises(ValueError) as e:
        call(value)
    assert str(e.value) == f"{name} must lie within the float range (at most 1.8e308)"


def test_every_count_past_float_range_is_named():
    with pytest.raises(ValueError, match=r"^B and n must lie within the float range"):
        BOUNDS["stat-bias"](10**400, 10**401, "uwb")


@pytest.mark.parametrize(
    "ok, call", [case[3:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_numpy_integer_count_is_taken(ok, call):
    call(np.int64(ok))


def test_numpy_integer_seed_and_path_draw_the_same_stream():
    assert child_seed(np.int64(4), np.uint8(2)) == child_seed(4, 2)
    assert stream(np.int64(4), np.uint8(2)).random() == stream(4, 2).random()


SMALL_DTYPES = (np.uint8, np.int8, np.uint16)
SMALL = [(case, dtype) for case in CASES for dtype in SMALL_DTYPES
         if case[3] <= np.iinfo(dtype).max]


@pytest.mark.parametrize(
    "dtype, ok, call", [(dtype, *case[3:]) for case, dtype in SMALL],
    ids=[f"{case[0]}-{dtype.__name__}" for case, dtype in SMALL],
)
def test_small_numpy_integer_count_is_taken(dtype, ok, call):
    # The configured filter turns a wrapping product's RuntimeWarning into a failure.
    call(dtype(ok))


# A count in a small dtype whose 2B (or 4 * bins) would wrap: the check must still see it.
WRAPS = [
    ("umb_scheme", lambda: umb_scheme(np.linspace(0.0, 1.0, 300), np.uint8(200)),
     "need n_e >= 2B samples for UMB, got n_e=300, B=200"),
    ("fit_recalibrator", lambda: fit_recalibrator(
        ScoredDataset(np.linspace(0.0, 1.0, 300), np.tile([0, 1], 150)), np.uint8(200)),
     "too few samples: need at least 400, have 300"),
    ("plugin_mi", lambda: plugin_mi(np.linspace(0.0, 1.0, 300), np.tile([0, 1], 150),
                                    bins=np.uint8(100)),
     "insufficient pairs: need at least 400, have 300"),
    ("CmiExperimentConfig", lambda: CmiExperimentConfig(**{**CMI, "n": np.uint8(200),
                                                           "B": np.uint8(130)}),
     "need n >= 2B training rows per cell, got n=200, B=130"),
]


@pytest.mark.parametrize("call, message", [w[1:] for w in WRAPS], ids=[w[0] for w in WRAPS])
def test_small_dtype_count_does_not_wrap(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message


def test_small_dtype_counts_reach_full_range():
    assert uwb_scheme(np.uint8(255)).B == 255
    assert TrainerConfig(epochs=np.uint8(255)).epochs == 255
    assert type(TrainerConfig(epochs=np.int8(3)).epochs) is int
    assert stream(np.uint8(255), np.uint8(255)).random() == stream(255, 255).random()
