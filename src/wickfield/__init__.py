"""Cumulant and Wick-polynomial algebra for random lattice fields, with
numerical certification of clustering-norm bounds and a desk-scale DNLS
time-correlation application."""

__version__ = "0.1.0"

from .indexing import SiteRef, canonical
from .partitions import (
    CombinatorialBlowupError,
    SetPartition,
    bell_number,
    enumerate_partitions,
    enumerate_restricted,
    factorial_partition_sum,
    verify_comb_est,
)
from .cumulants import (
    CumulantTable,
    MomentProvider,
    OrderOverflowError,
    WickExpansion,
    cumulant,
    generating_check,
    moments_from_cumulants,
    wick_expansion,
    wick_product_expectation,
)
from .fields import (
    EnsembleEstimator,
    FiniteDiscreteField,
    IidComplexGaussianField,
    IidRealGaussianField,
    PSDViolationError,
    SpectralGaussianField,
    check_psd,
    sample_ensemble,
    sinc_coupling_example,
)
from .clustering import (
    GAMMA,
    Observable,
    clustering_norm,
    joint_theorem_check,
    l1_divergence_probe,
    lemma_check,
    magnitude_constants,
    phi_kernel,
    theorem41_check,
)
from .dnls import (
    CorrelationSeries,
    DnlsConfig,
    FieldState,
    correlation_series,
    duhamel_residual,
    evolve,
    fit_residual_constant,
    sample_initial,
)
from .reports import BoundReport, SCHEMA_VERSION
