"""The public API: the names `gausscollide.__all__` exports."""

import gausscollide

PUBLIC_NAMES = [
    "CCoefficients", "ChannelPair", "DegenerateCovarianceError", "Direction",
    "DivisibilityMeasure", "DivisibilityRecord", "EnvironmentSpec", "GaussCollideError",
    "JointSpec", "SimulationConfig", "SingularIntermediateMapError", "StepRecord",
    "Trajectory", "__version__", "channel_xy", "collision_unitary", "compose_chronological",
    "divisibility_eigenvalues", "divisibility_records", "env_ancilla_cm", "env_noise_scales",
    "extract_c_coefficients", "g_ancilla_to_system", "g_system_to_ancilla",
    "initial_full_cm", "intermediate_cp_matrix", "iter_steps", "joint_cm_closed_form",
    "mode_unitary_to_symplectic", "nm_cptp", "nm_from_steering", "physicality_check",
    "reduce_to_modes", "run", "squeezed_thermal_cm", "steerability", "steering_series",
    "symplectic_defect", "symplectic_form", "threshold_an_to_s_squeezed_vac",
    "threshold_an_to_s_thermal", "threshold_s_to_an", "tmsv_cm", "unitarity_defect",
    "vacuum_cm",
]


def test_all_is_pinned_and_resolves():
    assert len(PUBLIC_NAMES) == 45
    assert sorted(gausscollide.__all__) == PUBLIC_NAMES
    for name in gausscollide.__all__:
        assert getattr(gausscollide, name) is not None, name
