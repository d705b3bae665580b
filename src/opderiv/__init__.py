"""opderiv: iterated commutator derivatives, triangular corner
representations, and invariant-subspace reflexivity checks on dense
complex matrices."""

__version__ = "0.1.0"

from .core import (
    DEFAULT_TOL,
    DimensionMismatch,
    NotHermitian,
    OperatorSpace,
    SelfAdjointGenerator,
    Subspace,
    TolerancePolicy,
    as_operator,
    eig_hermitian,
    frobenius_norm,
    load_operator,
    nullspace_of_constraints,
    operator_norm,
    save_operator,
    spectral_band_projections,
    unitary_group,
)
from .derivation import (
    BandMatrix,
    DerivativeChain,
    automorphism,
    band_derivation,
    band_embed,
    binomial_derivative,
    central_difference_derivative,
    central_difference_scalar,
    chain_norm,
    commutator_derivative,
    derivative_chain,
    iterated_derivative,
    leibniz_check,
    lipschitz_check,
    uniform_convergence_check,
)
from .reflexivity import (
    InvariantFamily,
    LatGenerationFailed,
    ReflexivityReport,
    ReflexivityViolation,
    VonNeumannAlgebraSpec,
    alg_of_family,
    bicommutant,
    commutant,
    graph_subspace,
    invariant_family,
    lat_family,
    reflexivity_check,
)
from .reports import CheckReport
from .scenarios import (
    ConfigError,
    circle_scenario,
    circle_shift,
    random_scenario,
)
from .triangular import (
    ad_expansion_check,
    amplify,
    conjugation_identity_check,
    corner_exponential,
    corner_exponential_norm,
    homomorphism_check,
    norm_sandwich_check,
    triangular_representation,
)
from .harness import CHECK_NAMES, RunReport, ScenarioConfig, run_checks
