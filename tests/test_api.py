"""The public API: the names `gausscollide.__all__` exports."""

from pathlib import Path

import pytest

import gausscollide
import gausscollide.reference

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

# The reference oracles' names, which the package imports from `reference` on first access.
REFERENCE_NAMES = [
    "CCoefficients", "ChannelPair", "StepRecord", "channel_xy", "collision_unitary",
    "compose_chronological", "extract_c_coefficients", "g_ancilla_to_system",
    "g_system_to_ancilla", "intermediate_cp_matrix", "mode_unitary_to_symplectic",
    "physicality_check", "reduce_to_modes", "squeezed_thermal_cm", "symplectic_defect",
    "symplectic_form", "tmsv_cm", "unitarity_defect", "vacuum_cm",
]


def test_all_is_pinned_and_resolves():
    assert len(PUBLIC_NAMES) == 45
    assert sorted(gausscollide.__all__) == PUBLIC_NAMES
    star = {}
    exec("from gausscollide import *", star)
    for name in gausscollide.__all__:
        assert getattr(gausscollide, name) is not None, name
        assert star[name] is getattr(gausscollide, name), name
    assert set(REFERENCE_NAMES) <= set(PUBLIC_NAMES)
    for name in REFERENCE_NAMES:
        assert getattr(gausscollide, name) is getattr(gausscollide.reference, name), name
    assert set(REFERENCE_NAMES) <= set(dir(gausscollide))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gausscollide.no_such_name


def test_readme_library_block_runs(capsys):
    """The Python block under the README's Library heading runs as shown."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "steering revivals:" in out and "sigma after 20 rounds: (46, 46)" in out
