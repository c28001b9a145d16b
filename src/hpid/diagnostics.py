"""Post-run diagnostics: the overlap of x(t) and x-hat(t) with the
terminal sample, mode-coverage histograms, and transition-time readouts,
and the files autocorr.csv, modes.csv and transition.json that hold them
(written by the writers of targets; an unreached crossing is null).

The overlap curves expose the two-phase character of the controlled
process: the weighted state x-hat commits to the final sample early
while the state x only catches up near t = 1. The time at which each
normalized curve first crosses a threshold (0.5 by default) summarizes a
run by two numbers, and their gap is the quantity of interest.

Normalization: each trajectory contributes x(t).x(1) / |x(1)|^2, then
curves are averaged across trajectories; the per-trajectory rows are
kept alongside the averages so resampling tests can work on them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .targets import GaussianMixtureEnergy, _write_csv, _write_json, assign_modes


@dataclass(frozen=True)
class AutocorrSeries:
    times: np.ndarray  # (R,)
    corr_state: np.ndarray  # (R,) ensemble average
    corr_weighted: np.ndarray  # (R,) ensemble average
    n_trajectories: int
    per_state: np.ndarray  # (n_trajectories, R)
    per_weighted: np.ndarray  # (n_trajectories, R)


def autocorrelation(times, states, weighted, terminals) -> AutocorrSeries:
    """Normalized overlap of x(t) and x-hat(t) with x(1), averaged over paths.

    times (R,), states and weighted (B, R, d), terminals (B, d): the
    recorded rows of a BatchTrajectories, or the same arrays read back
    from a run's trajectories.bin.
    """
    shapes = [np.shape(a) for a in (times, states, weighted, terminals)]
    b, r, d = shapes[1] if len(shapes[1]) == 3 else (0, 0, 0)
    if b == 0 or shapes != [(r,), (b, r, d), (b, r, d), (b, d)]:
        raise InputError(
            f"no trajectories or mismatched shapes {shapes}; expected "
            "(R,), (B, R, d), (B, R, d), (B, d) with B >= 1"
        )
    if not np.all(np.isfinite(weighted)):
        raise ConfigError(
            "weighted states contain non-finite entries; the control used "
            "does not report x-hat"
        )
    den = np.einsum("bd,bd->b", terminals, terminals)
    if np.any(den <= 0):
        raise InputError("a terminal state is exactly zero; cannot normalize")
    per_state = np.einsum("brd,bd->br", states, terminals) / den[:, None]
    per_weighted = np.einsum("brd,bd->br", weighted, terminals) / den[:, None]
    return AutocorrSeries(
        times=times,
        corr_state=per_state.mean(axis=0),
        corr_weighted=per_weighted.mean(axis=0),
        n_trajectories=b,
        per_state=per_state,
        per_weighted=per_weighted,
    )


def _crossing(times, values, threshold):
    """First time each curve of values (..., R) reaches the threshold, by
    linear interpolation between recorded points; nan where it never does."""
    hit = values >= threshold
    i1 = hit.argmax(axis=-1)[..., None]
    i0 = np.maximum(i1 - 1, 0)  # i1 itself when the first point is a hit
    v0, v1 = (np.take_along_axis(values, i, -1)[..., 0] for i in (i0, i1))
    t0, t1 = (np.asarray(times)[i[..., 0]] for i in (i0, i1))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(v1 == v0, t1, t0 + (threshold - v0) * (t1 - t0) / (v1 - v0))
    return np.where(hit.any(axis=-1), t, np.nan)


def transition_time(series: AutocorrSeries, threshold: float = 0.5) -> float:
    """First time the averaged weighted-state overlap crosses the threshold.

    Linear interpolation between recorded points; nan if never reached.
    """
    if series.corr_weighted.size == 0:
        raise InputError("empty autocorrelation series")
    return float(_crossing(series.times, series.corr_weighted, threshold))


def transition_times_per(
    series: AutocorrSeries, threshold: float = 0.5, which: str = "weighted"
) -> np.ndarray:
    """Per-trajectory crossing times of the chosen overlap curve."""
    if which == "weighted":
        rows = series.per_weighted
    elif which == "state":
        rows = series.per_state
    else:
        raise InputError(f"which must be 'weighted' or 'state', got {which!r}")
    return _crossing(series.times, rows, threshold)


_BOOTSTRAP_BLOCK = 1 << 17  # overlap values gathered per block of resamples


def bootstrap_transition_gap(
    series: AutocorrSeries,
    threshold: float = 0.5,
    n_resamples: int = 1000,
    seed: int = 0,
) -> dict:
    """Bootstrap (over trajectories) of the state-minus-weighted crossing gap.

    Positive gap means the weighted state commits before the state does.
    Returns the observed gap and percentile bounds of the resampled gaps.
    The resamples are drawn, averaged and read a block at a time, each
    block's indices by one rng.integers call, which gives the indices of
    one call per resample; a block gathers about 131k overlap values.
    """
    b = series.per_state.shape[0]
    rng = np.random.default_rng(seed)
    gaps = np.empty(n_resamples)
    step = max(1, _BOOTSTRAP_BLOCK // series.per_state.size)
    for lo in range(0, n_resamples, step):
        idx = rng.integers(0, b, (min(step, n_resamples - lo), b))
        t_s = _crossing(series.times, series.per_state[idx].mean(axis=1), threshold)
        t_w = _crossing(series.times, series.per_weighted[idx].mean(axis=1), threshold)
        gaps[lo : lo + len(idx)] = t_s - t_w
    observed = _crossing(series.times, series.corr_state, threshold) - _crossing(
        series.times, series.corr_weighted, threshold
    )
    return {
        "gap": float(observed),
        "p5": float(np.percentile(gaps, 5)),
        "p50": float(np.percentile(gaps, 50)),
        "p95": float(np.percentile(gaps, 95)),
        "n_resamples": n_resamples,
    }


@dataclass(frozen=True)
class ModeHistogram:
    counts: np.ndarray  # (M,)
    expected: np.ndarray  # (M,)
    chi2: float
    assignments: np.ndarray  # (S,)


def mode_assignment(terminals, m: GaussianMixtureEnergy) -> ModeHistogram:
    """Nearest-center counts and the chi-square statistic against weights."""
    t = np.asarray(terminals, dtype=float)
    if t.ndim == 1:
        t = t[:, None]
    if t.shape[0] < 1:
        raise InputError("no terminal samples given")
    idx = assign_modes(m, t)
    counts = np.bincount(idx, minlength=m.weights.shape[0]).astype(float)
    expected = m.weights * t.shape[0]
    chi2 = 0.0
    for c, e in zip(counts, expected):
        if e > 0:
            chi2 += (c - e) ** 2 / e
        elif c > 0:
            chi2 = math.inf
            break
    return ModeHistogram(
        counts=counts, expected=expected, chi2=float(chi2), assignments=idx
    )


def write_autocorr_csv(path: str, series: AutocorrSeries) -> None:
    table = np.column_stack([series.times, series.corr_state, series.corr_weighted])
    _write_csv(path, "t,corr_state,corr_weighted", "%.17g,%.17g,%.17g", table)


def write_modes_csv(path: str, hist: ModeHistogram) -> None:
    table = np.column_stack([np.arange(hist.counts.size), hist.counts, hist.expected])
    _write_csv(path, "mode,count,expected", "%d,%d,%.17g", table)


def write_transition_json(
    path: str, series: AutocorrSeries, threshold: float = 0.5, bootstrap: dict | None = None
) -> None:
    doc = {
        "threshold": threshold,
        "n_trajectories": series.n_trajectories,
        "transition_weighted": transition_time(series, threshold),
        "transition_state": float(_crossing(series.times, series.corr_state, threshold)),
    }
    if bootstrap is not None:
        doc["bootstrap_gap"] = bootstrap
    _write_json(path, doc)
