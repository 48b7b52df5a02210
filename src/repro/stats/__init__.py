"""Statistics toolkit: empirical CDFs, histograms, samplers, fits.

Everything in the paper's evaluation is a CDF, a histogram, or a share
breakdown over a large population; this package provides those primitives as
vectorized NumPy operations so the benchmark harness can characterize
millions of records in milliseconds.
"""

from repro.stats.cdf import EmpiricalCDF
from repro.stats.fit import (
    LognormalFit,
    PowerLawFit,
    fit_lognormal,
    fit_powerlaw_tail,
    ks_distance,
    quantile_relative_errors,
)
from repro.stats.histogram import Histogram, linear_bins, log_bins
from repro.stats.samplers import (
    LognormalSpec,
    MixtureSpec,
    ParetoTailSpec,
    bounded_zipf_weights,
    lognormal_from_median_p90,
    sample_lognormal,
    sample_mixture,
    sample_zipf_ranks,
)

__all__ = [
    "EmpiricalCDF",
    "Histogram",
    "LognormalFit",
    "LognormalSpec",
    "PowerLawFit",
    "MixtureSpec",
    "ParetoTailSpec",
    "bounded_zipf_weights",
    "fit_lognormal",
    "fit_powerlaw_tail",
    "ks_distance",
    "linear_bins",
    "log_bins",
    "lognormal_from_median_p90",
    "quantile_relative_errors",
    "sample_lognormal",
    "sample_mixture",
    "sample_zipf_ranks",
]
