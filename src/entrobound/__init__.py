"""Entropy-rate upper bounds for discrete-valued stationary processes.

The bounds take only second-order statistics: either a full power spectral
density (:func:`gaussian_psd_bound`) or a finite run of autocovariances
(:func:`tdist_bound_k`, :func:`tdist_bound_1`).  A catalogue of example
processes with exact second-order statistics, plus seeded simulation
oracles, lives in :mod:`entrobound.processes` and :mod:`entrobound.montecarlo`.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name -> the submodule that defines it.  Names resolve on first
# access (PEP 562), so ``import entrobound`` loads no submodule and a caller of
# the numpy-free ones (``models``, ``numerics``) never loads numpy.
_HOMES = {
    **dict.fromkeys(
        ("BoundResult", "gaussian_bound_k", "gaussian_entropy_rate", "gaussian_psd_bound", "tdist_bound_1",
         "tdist_bound_k"),
        "bounds",
    ),
    **dict.fromkeys(
        ("BinomialEmission", "DmaModel", "PoissonEmission", "PoissonModel", "QuantizedArModel",
         "QuantizedMaModel", "TwoStateHmm", "dma_covariance", "hmm_alpha_beta_omega", "hmm_covariance",
         "poisson_entropy", "poisson_me_bound", "qar_r0", "qar_rk", "qma_k_ratio", "qma_r0", "qma_r1",
         "quantize"),
        "models",
    ),
    **dict.fromkeys(
        ("EstimateWithError", "SamplePath", "empirical_conditional_entropy", "empirical_covariance",
         "simulate"),
        "montecarlo",
    ),
    **dict.fromkeys(("ConvergenceError", "DomainError", "log_gamma", "univariate_me_bound"), "numerics"),
    **dict.fromkeys(
        ("dma_psd", "hmm_entropy_bound", "hmm_psd", "qar_conditional_entropy", "qar_th2_bound",
         "qma_conditional_entropy", "qma_th1_bound", "qma_th3_bound"),
        "processes",
    ),
    **dict.fromkeys(
        ("CovarianceSequence", "PsdValidationError", "SpectralDensity", "ToeplitzSpec",
         "closed_form_log_cos_integral", "fiedler_determinant_check", "integrate_periodic",
         "psd_from_finite_covariance", "toeplitz_gaussian_bound_finite", "tridiagonal_determinant"),
        "spectrum",
    ),
}
_SUBMODULES = {"bounds", "cli", "models", "montecarlo", "numerics", "processes", "spectrum"}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES) | _SUBMODULES)
