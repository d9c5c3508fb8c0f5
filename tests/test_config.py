"""Tolerances and classification thresholds."""

import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import pytest

from qdetchar import CategoryThresholds, Tolerances, config


class TestConfigValues:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_fields_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            Tolerances(neg=value)
        with pytest.raises(ValueError, match="finite"):
            CategoryThresholds(ideality_min=value)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError, match="Tolerances.herm must be a finite, non-negative"):
            Tolerances(herm=-1e-12)
        with pytest.raises(ValueError, match="projectivity_min must be a finite, non-negative"):
            CategoryThresholds(projectivity_min=-0.5)
        assert Tolerances(trace_floor=0.0).trace_floor == 0.0

    def test_env_values_are_checked(self):
        env = {"QDETCHAR_PROJECTIVITY_MIN": "nan"}
        with pytest.raises(ValueError, match="projectivity_min must be a finite"):
            CategoryThresholds.from_env(env)
        with pytest.raises(ValueError, match="QDETCHAR_NEG_TOL"):
            Tolerances.from_env({"QDETCHAR_NEG_TOL": "small"})
        assert Tolerances.from_env({"QDETCHAR_NEG_TOL": "1e-3"}).neg == 1e-3


def test_readme_configuration_names_every_variable_read():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    settings = [*fields(Tolerances), *fields(CategoryThresholds)]
    read = {config.ENV_PREFIX + f.metadata["env"] for f in settings}
    assert set(re.findall(r"QDETCHAR_[A-Z][A-Z_]*", section)) == read


def test_a_setting_is_read_from_the_variable_its_field_names():
    @dataclass(frozen=True)
    class Extended(Tolerances):
        extra: float = field(default=2.0, metadata={"env": "EXTRA_TOL"})

    assert Extended.from_env({}).extra == 2.0
    assert Extended.from_env({"QDETCHAR_EXTRA_TOL": "0.5"}).extra == 0.5
    with pytest.raises(ValueError, match="^QDETCHAR_EXTRA_TOL='-1': Extended.extra must be"):
        Extended.from_env({"QDETCHAR_EXTRA_TOL": "-1"})


def test_each_setting_has_its_own_variable():
    names = [f.metadata["env"] for cls in (Tolerances, CategoryThresholds) for f in fields(cls)]
    assert len(names) == len(set(names)) == 12
