"""Tolerances and classification thresholds."""

import pytest

from qdetchar import CategoryThresholds, Tolerances


class TestConfigValues:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_fields_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            Tolerances(neg=value)
        with pytest.raises(ValueError, match="finite"):
            CategoryThresholds(ideality_min=value)

    def test_env_values_are_checked(self):
        env = {"QDETCHAR_PROJECTIVITY_MIN": "nan"}
        with pytest.raises(ValueError, match="projectivity_min must be a finite"):
            CategoryThresholds.from_env(env)
        with pytest.raises(ValueError, match="QDETCHAR_NEG_TOL"):
            Tolerances.from_env({"QDETCHAR_NEG_TOL": "small"})
        assert Tolerances.from_env({"QDETCHAR_NEG_TOL": "1e-3"}).neg == 1e-3
