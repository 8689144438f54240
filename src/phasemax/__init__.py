"""phasemax: sparse blind source separation via phase-space maxima.

The package separates linear mixtures of sparse sources by locating the
trajectory point farthest from the origin in phase space, projecting to
estimate that source, deflating, and iterating; whitening beforehand
makes uncorrelated sources come out clean.  A PCA baseline, the seeded
Monte-Carlo evaluation protocol, and readers for delimited text and EDF
recordings round out the toolkit.
"""

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InvalidSpecError,
    MalformedHeaderError,
    NonFiniteError,
    NotSymmetricError,
    OutOfBoundsError,
    ParseError,
    PhasemaxError,
    RaggedRowsError,
    TruncatedDataError,
    UnsupportedFeatureError,
    ZeroSeriesError,
    ZeroSignalError,
    ZeroVarianceError,
)
from .evaluation import (
    AssociationReport,
    MethodSpec,
    MonteCarloConfig,
    RmsReport,
    associate,
    cross_method_correlations,
    monte_carlo_rms,
    normalize_unit,
)
from .ingest import Recording, read_edf, read_matrix_text, write_matrix_text
from .numerics import EigenDecomposition, symmetric_eig
from .pca import pca_separate
from .separation import SeparationResult, SourceEstimate, radius_series, separate_maximum
from .signals import (
    DOMINANT_MIXING,
    OBLIQUE_MIXING,
    MultichannelSignal,
    NoiseSpec,
    Pulse,
    PulseTrainSpec,
    add_noise,
    center,
    coincident_peaks_spec,
    correlated_sources_spec,
    disjoint_sources_spec,
    generate_sources,
    mix,
)
from .whitening import (
    WhiteningTransform,
    apply_whitening,
    second_moment,
    whiten_gram_schmidt,
    whiten_pca,
)

__version__ = "0.1.0"
