"""Difference kernels: Prony (sum-of-exponentials) series and analytic forms.

A Prony series ``ktil(t) = sum_i a_i * exp(-b_i * t)`` with a_i > 0 and
b_i >= 0 is a positive-type convolution kernel, which is what makes the
compressed reformulation of the memory term stable.  This module holds the
kernel representations, the built-in stretched-exponential fits and the
sup-norm error report used to quantify how well a series approximates its
analytic target.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "PronySeries",
    "StretchedExponential",
    "KernelErrorReport",
    "KernelFormatError",
    "prony_eval",
    "analytic_eval",
    "kernel_sup_error",
    "load_builtin_prony",
    "prony_from_file",
    "BUILTIN_BETAS",
    "builtin_beta",
]


class KernelFormatError(ValueError):
    """Raised when a coefficient file cannot be parsed or validated."""


@dataclass(frozen=True)
class PronySeries:
    """Sum of decaying exponentials, stored sorted by ascending decay rate.

    Parameters
    ----------
    weights : tuple of float
        Term amplitudes a_i; all finite and strictly positive.
    rates : tuple of float
        Term decay rates b_i (inverse time); all finite and nonnegative.
    """

    weights: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.rates):
            raise ValueError(
                f"weights ({len(self.weights)}) and rates ({len(self.rates)}) "
                "must have equal length"
            )
        if len(self.weights) < 1:
            raise ValueError("a Prony series needs at least one term")
        for i, (a, b) in enumerate(zip(self.weights, self.rates)):
            if not 0 < a < math.inf:
                raise ValueError(f"term {i}: weight a={a} must be finite and > 0")
            if not 0 <= b < math.inf:
                raise ValueError(f"term {i}: rate b={b} must be finite and >= 0")
        order = sorted(range(len(self.rates)), key=lambda i: self.rates[i])
        object.__setattr__(
            self, "weights", tuple(float(self.weights[i]) for i in order)
        )
        object.__setattr__(
            self, "rates", tuple(float(self.rates[i]) for i in order)
        )

    @property
    def n_terms(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> float:
        """Exact value at t = 0 (no exponential evaluation involved)."""
        return math.fsum(self.weights)


@dataclass(frozen=True)
class StretchedExponential:
    """exp(-t**beta) with stretching exponent 0 < beta < 1."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta={self.beta} must lie in (0, 1)")


@dataclass(frozen=True)
class KernelErrorReport:
    """Pointwise ktil - k samples and their sup-norm over a time window."""

    times: np.ndarray
    errors: np.ndarray
    sup_error: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sup_error", float(np.max(np.abs(self.errors))))


def _require_nonnegative_time(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):  # a NaN fails too
        raise ValueError("kernel evaluation requires t >= 0")
    return t


def prony_eval(series: PronySeries, t):
    """Evaluate the sum of exponentials at scalar or array time(s) t >= 0:
    a float for a scalar (0-d) t, else an array of t's shape.

    At t = 0 the exact weight sum is returned, avoiding exp() rounding, and
    later values are clamped to it, so the series stays monotone.
    """
    t_arr = _require_nonnegative_time(t)
    a = np.asarray(series.weights)
    b = np.asarray(series.rates)
    out = np.minimum(np.exp(-np.multiply.outer(t_arr, b)) @ a, series.total_weight)
    out = np.where(t_arr == 0.0, series.total_weight, out)
    return float(out) if out.ndim == 0 else out


def analytic_eval(kernel: StretchedExponential, t):
    """Evaluate the analytic kernel exp(-t**beta) at time(s) t >= 0: a float
    for a scalar (0-d) t, else an array of t's shape."""
    if not isinstance(kernel, StretchedExponential):
        raise TypeError(f"not an analytic kernel: {kernel!r}")
    out = np.exp(-(_require_nonnegative_time(t) ** kernel.beta))
    return float(out) if out.ndim == 0 else out


def _geometric_grid(t_min: float, t_max: float, samples: int) -> np.ndarray:
    if not (0.0 < t_min < t_max):
        raise ValueError(f"need 0 < t_min < t_max, got [{t_min}, {t_max}]")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    return np.geomspace(t_min, t_max, samples)


def kernel_sup_error(
    analytic: StretchedExponential,
    prony: PronySeries,
    window: tuple[float, float] = (1e-1, 10.0),
    samples: int = 1000,
) -> KernelErrorReport:
    """Sample ktil - k on a geometric grid and report the sup-norm.

    The grid is log-spaced because the approximation error of the built-in
    fits concentrates near t = 0.
    """
    times = _geometric_grid(window[0], window[1], samples)
    errors = prony_eval(prony, times) - analytic_eval(analytic, times)
    return KernelErrorReport(times=times, errors=errors)


# 12-term stretched-exponential fits (constrained so the weights sum to 1).
_BUILTIN_TABLE = {
    "3/7": (
        (0.02792, 0.03816),
        (0.09567, 0.10117),
        (0.13049, 0.22822),
        (0.13388, 0.47142),
        (0.12456, 0.94243),
        (0.10976, 1.88828),
        (0.09256, 3.86312),
        (0.07525, 8.15604),
        (0.05938, 17.92388),
        (0.04587, 41.47225),
        (0.03588, 104.13591),
        (0.06877, 402.71691),
    ),
    "1/2": (
        (0.01694, 0.06265),
        (0.08574, 0.13381),
        (0.14468, 0.26816),
        (0.15870, 0.52050),
        (0.14514, 1.00410),
        (0.12095, 1.96395),
        (0.09512, 3.94401),
        (0.07188, 8.20241),
        (0.05275, 17.81155),
        (0.03791, 40.85894),
        (0.02749, 102.07104),
        (0.04270, 383.52267),
    ),
    "3/5": (
        (0.01043, 0.12022),
        (0.08117, 0.20610),
        (0.17168, 0.35680),
        (0.19624, 0.63293),
        (0.16742, 1.15481),
        (0.12467, 2.17404),
        (0.08711, 4.23811),
        (0.05896, 8.59467),
        (0.03913, 18.25401),
        (0.02559, 41.07522),
        (0.01688, 100.99297),
        (0.02071, 363.84147),
    ),
}

BUILTIN_BETAS = {"3/7": 3.0 / 7.0, "1/2": 0.5, "3/5": 0.6}


def _beta_key(beta) -> str:
    """The table key of ``beta``: a key, or a number or its text within 1e-12
    of a key's value; KeyError for anything else."""
    try:
        value = float(beta)
    except (TypeError, ValueError):  # a fraction's text, or no number at all
        value = math.nan
    for key, exact in BUILTIN_BETAS.items():
        if beta == key or abs(value - exact) <= 1e-12:
            return key
    available = ", ".join(f"{key} ({exact:.6g})" for key, exact in BUILTIN_BETAS.items())
    raise KeyError(f"no built-in fit for beta={beta!r}; available: {available}")


def builtin_beta(beta) -> float:
    """The exponent of the built-in fit that ``beta`` names (see ``load_builtin_prony``)."""
    return BUILTIN_BETAS[_beta_key(beta)]


def load_builtin_prony(beta) -> PronySeries:
    """Return the built-in 12-term fit of exp(-t**beta).

    ``beta`` may be one of the strings "3/7", "1/2", "3/5", or a float
    (3/7, 0.5, 0.6) or its text ("0.5"); KeyError for any other value.
    """
    terms = _BUILTIN_TABLE[_beta_key(beta)]
    return PronySeries(
        weights=tuple(a for a, _ in terms),
        rates=tuple(b for _, b in terms),
    )


def prony_from_file(path) -> PronySeries:
    """Read a Prony series from a two-column CSV of "a,b" rows.

    Lines starting with '#' and an optional "a,b" header are skipped.
    """
    path = Path(path)
    weights, rates = [], []
    with path.open(newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            cells = [c.strip() for c in row]
            if not weights and cells[:2] == ["a", "b"]:
                continue
            if len(cells) != 2:
                raise KernelFormatError(
                    f"{path}:{lineno}: expected two columns 'a,b', got {row!r}"
                )
            try:
                a, b = float(cells[0]), float(cells[1])
            except ValueError as exc:
                raise KernelFormatError(f"{path}:{lineno}: {exc}") from exc
            if not 0 < a < math.inf:
                raise KernelFormatError(f"{path}:{lineno}: weight a={a} must be finite and > 0")
            if not 0 <= b < math.inf:
                raise KernelFormatError(f"{path}:{lineno}: rate b={b} must be finite and >= 0")
            weights.append(a)
            rates.append(b)
    if not weights:
        raise KernelFormatError(f"{path}: no coefficient rows found")
    return PronySeries(weights=tuple(weights), rates=tuple(rates))
