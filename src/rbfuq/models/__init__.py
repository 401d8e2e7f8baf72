"""Test models: analytic benchmark problems and the external-solver adapter."""
from .grid import GridField, GridSpec, NonFiniteFieldError, center_of_mass
from .analytic import (
    GFunction,
    KLField,
    PoissonExact,
    g_function,
    kl_eigenvalue,
    kl_log_field,
)
from .external import (
    CampaignResult,
    External,
    ExternalCommandError,
    ExternalError,
    ExternalTimeoutError,
    OutputFormatError,
    OutputValueError,
    StaleSampleError,
    read_qoi,
    run_campaign,
    write_qoi,
)

__all__ = [
    "GridField",
    "GridSpec",
    "NonFiniteFieldError",
    "center_of_mass",
    "GFunction",
    "KLField",
    "PoissonExact",
    "g_function",
    "kl_eigenvalue",
    "kl_log_field",
    "CampaignResult",
    "External",
    "ExternalCommandError",
    "ExternalError",
    "ExternalTimeoutError",
    "OutputFormatError",
    "OutputValueError",
    "StaleSampleError",
    "read_qoi",
    "write_qoi",
    "run_campaign",
]
