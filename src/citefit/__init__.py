"""Fitting and comparison of discrete heavy-tailed distributions on count data.

Names load on first use: ``import citefit`` imports no submodule, and the
first read of a public name, ``citefit.fit_hooked`` say, imports the
module that defines it (PEP 562). A ``citefit`` command thus loads only
the modules it calls.
"""

import importlib

__version__ = "0.1.0"

#: Each public name, under the module that defines it.
_EXPORTS = {
    "comparison": ("ComparisonOutcome", "compare", "lrt_test", "vuong_test"),
    "dataset": ("CountDataset", "TruncatedView", "load_counts", "tail_ccdf", "truncate"),
    "fitting": (
        "FitResult",
        "XminScanResult",
        "fit_hooked",
        "fit_lognormal",
        "fit_power_law",
        "neg_log_likelihood",
        "scan_x_min",
    ),
    "kernels": (
        "DiscreteDistribution",
        "DiscreteLognormalParams",
        "HookedPowerLawParams",
        "PowerLawParams",
        "normalization_constant",
        "normalization_constants",
        "unnormalized_weight",
    ),
    "simulation": (
        "AttachmentParams",
        "CIWidthGrid",
        "LLContourGrid",
        "RidgeReport",
        "attachment_to_hooked",
        "ci_width_study",
        "hooked_to_attachment",
        "ll_contour",
        "lognormal_ci_study",
        "ridge_demo",
        "slope_tolerance_threshold",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
#: Submodules that read as attributes before their first import, as when
#: ``import citefit`` loaded them all.
_SUBMODULES = (*_EXPORTS, "errors")

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
