"""Bayesian spatial-domain clustering over similarity matrices.

The pipeline: per-modality embeddings -> Fisher-Z similarity matrices and
a binary spatial neighborhood graph -> blocked Gibbs sampling over a
Gaussian stochastic block model with a mixture-of-finite-mixtures prior
and a spatial label reward -> Dahl point estimate with per-cell
uncertainty -> criterion-driven selection of (lambda, delta).
"""

__version__ = "0.1.0"

from .errors import DataError, InputFormatError, NumericError, SpatialSbmError
from .features import (
    CountMatrix,
    Embedding,
    adt_frontend,
    atac_frontend,
    rna_frontend,
    standardize_cells,
)
from .likelihood import (
    BlockParams,
    BlockStats,
    NormalGammaPrior,
    block_stats,
    empirical_prior,
    full_deviance,
    new_domain_marginal,
    resample_block_params,
)
from .metrics import (
    CONSTANT_ONE,
    SpatialWeightFn,
    ari,
    linear_decay,
    morans_i,
    nmi_ami_homogeneity,
    spari,
)
from .partition import Partition
from .partition_prior import (
    MfmPrior,
    lambda_critical,
    log_vn_table,
)
from .sampler import ChainSample, FitConfig, GibbsSampler, init_chain, run_chain
from .selection import GridResult, GridSpec, build_grid, evaluate_config, grid_search, mdic
from .similarity import (
    NeighborhoodGraph,
    build_neighborhood,
    cosine_similarity,
    fisher_z,
)
from .summary import (
    PosteriorSummary,
    comembership,
    dahl_index,
    dahl_select,
    mean_comembership,
    summarize_chain,
    uncertainty_scores,
)
from .synthetic import SyntheticSpec, generate_nonspatial_null, generate_spatial_sbm

__all__ = [
    "BlockParams",
    "BlockStats",
    "CONSTANT_ONE",
    "ChainSample",
    "CountMatrix",
    "DataError",
    "Embedding",
    "FitConfig",
    "GibbsSampler",
    "GridResult",
    "GridSpec",
    "InputFormatError",
    "MfmPrior",
    "NeighborhoodGraph",
    "NormalGammaPrior",
    "NumericError",
    "Partition",
    "PosteriorSummary",
    "SpatialSbmError",
    "SpatialWeightFn",
    "SyntheticSpec",
    "adt_frontend",
    "ari",
    "atac_frontend",
    "block_stats",
    "build_grid",
    "build_neighborhood",
    "comembership",
    "cosine_similarity",
    "dahl_index",
    "dahl_select",
    "empirical_prior",
    "evaluate_config",
    "fisher_z",
    "full_deviance",
    "generate_nonspatial_null",
    "generate_spatial_sbm",
    "grid_search",
    "init_chain",
    "lambda_critical",
    "linear_decay",
    "log_vn_table",
    "mdic",
    "mean_comembership",
    "morans_i",
    "new_domain_marginal",
    "nmi_ami_homogeneity",
    "resample_block_params",
    "rna_frontend",
    "run_chain",
    "spari",
    "standardize_cells",
    "summarize_chain",
    "uncertainty_scores",
]
