"""All-optical Gaussian collision-model simulator.

Evolves a two-mode squeezed ancilla-system pair through a chain of
tunable beam-splitter collisions with structured environment modes and
quantifies the resulting non-Markovianity through Gaussian steering
revivals and CPTP-divisibility breaking.
"""

from .divisibility import (
    ChannelPair,
    DivisibilityMeasure,
    DivisibilityRecord,
    channel_xy,
    divisibility_eigenvalues,
    divisibility_records,
    intermediate_cp_matrix,
    nm_cptp,
)
from .engine import (
    SimulationConfig,
    StepRecord,
    Trajectory,
    env_ancilla_cm,
    initial_full_cm,
    iter_steps,
    joint_cm_closed_form,
    run,
)
from .errors import DegenerateCovarianceError, GaussCollideError, SingularIntermediateMapError
from .network import (
    CCoefficients,
    collision_unitary,
    compose_chronological,
    extract_c_coefficients,
    mode_unitary_to_symplectic,
    symplectic_defect,
    unitarity_defect,
)
from .states import (
    EnvironmentSpec,
    JointSpec,
    env_noise_scales,
    physicality_check,
    reduce_to_modes,
    squeezed_thermal_cm,
    symplectic_form,
    tmsv_cm,
    vacuum_cm,
)
from .steering import (
    Direction,
    g_ancilla_to_system,
    g_system_to_ancilla,
    nm_from_steering,
    steerability,
    steering_series,
    threshold_an_to_s_squeezed_vac,
    threshold_an_to_s_thermal,
    threshold_s_to_an,
)

__version__ = "0.1.0"

__all__ = [
    "CCoefficients",
    "ChannelPair",
    "DegenerateCovarianceError",
    "Direction",
    "DivisibilityMeasure",
    "DivisibilityRecord",
    "EnvironmentSpec",
    "GaussCollideError",
    "JointSpec",
    "SimulationConfig",
    "SingularIntermediateMapError",
    "StepRecord",
    "Trajectory",
    "channel_xy",
    "collision_unitary",
    "compose_chronological",
    "divisibility_eigenvalues",
    "divisibility_records",
    "env_ancilla_cm",
    "env_noise_scales",
    "extract_c_coefficients",
    "g_ancilla_to_system",
    "g_system_to_ancilla",
    "initial_full_cm",
    "intermediate_cp_matrix",
    "iter_steps",
    "joint_cm_closed_form",
    "mode_unitary_to_symplectic",
    "nm_cptp",
    "nm_from_steering",
    "physicality_check",
    "reduce_to_modes",
    "run",
    "squeezed_thermal_cm",
    "steerability",
    "steering_series",
    "symplectic_defect",
    "symplectic_form",
    "threshold_an_to_s_squeezed_vac",
    "threshold_an_to_s_thermal",
    "threshold_s_to_an",
    "tmsv_cm",
    "unitarity_defect",
    "vacuum_cm",
    "__version__",
]
