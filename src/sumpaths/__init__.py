"""Subsystem marginals of controlled-phase circuits via a local sum-over-paths
hidden-variable decomposition, checked against an exact state-vector oracle."""

from .circuits import (
    BadParticleIndex,
    Circuit,
    CircuitError,
    CircuitFormatError,
    DuplicatePhasePair,
    Layer,
    NonUnitaryGate,
    PhaseGate,
    build_epr_circuit,
    circuit_digest,
    dumps_canonical,
    factor_phase_gate,
    load_circuit,
    make_circuit,
    save_circuit,
    validate_circuit,
)
from .common import DEFAULT_BUDGET, BudgetExceeded, RealityError
from .density import DensityPair, normalized_phase_form
from .oracle import Distribution, evolve, marginal_by_sum
from .paths import (
    ConditionalUnitary,
    Path,
    amplitudes_via_paths,
    condition_on_paths,
    enumerate_paths,
    pair_phases,
    path_amplitude,
)
from .subsystems import lambda_blocks
from .threeparticle import (
    HitBreakdown,
    delta,
    gamma_chi,
    hit_three,
    lambda_three,
)
from .twoparticle import (
    LambdaEntry,
    hit,
    lambda_accumulate,
)
from .verify import VerificationReport, verify_circuit
