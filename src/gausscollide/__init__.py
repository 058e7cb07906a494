"""All-optical Gaussian collision-model simulator.

Evolves a two-mode squeezed ancilla-system pair through a chain of
tunable beam-splitter collisions with structured environment modes and
quantifies the resulting non-Markovianity through Gaussian steering
revivals and CPTP-divisibility breaking.  The reference oracles the closed
forms are tested against live in `gausscollide.reference`, loaded on first use.
"""

from .divisibility import (
    DivisibilityMeasure,
    DivisibilityRecord,
    divisibility_eigenvalues,
    divisibility_records,
    nm_cptp,
)
from .engine import (
    SimulationConfig,
    Trajectory,
    env_ancilla_cm,
    initial_full_cm,
    iter_steps,
    joint_cm_closed_form,
    run,
)
from .errors import DegenerateCovarianceError, GaussCollideError, SingularIntermediateMapError
from .states import EnvironmentSpec, JointSpec, env_noise_scales
from .steering import (
    Direction,
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

# The names of __all__ not imported above are the reference oracles', imported
# from `reference` on first access (PEP 562): a run needs them only under --oracle.
_REFERENCE_NAMES = frozenset(__all__).difference(globals())


def __getattr__(name):
    if name in _REFERENCE_NAMES:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _REFERENCE_NAMES)
