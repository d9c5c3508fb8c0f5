"""Tolerances and classification thresholds."""

import re
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdetchar import CategoryThresholds, ReportFile, Tolerances, config, load_report, save_report

# A setting's value as a caller may give it: a Python int or float, or a numpy scalar.
_SETTING = st.one_of(
    st.integers(0, 10**6),
    st.floats(0.0, 1e6),
    st.integers(0, 10**6).map(np.int64),
    st.floats(0.0, 1e6, width=32).map(np.float32),
    st.floats(0.0, 1e6).map(np.float64),
)


def _settings(cls):
    return st.builds(cls, **{f.name: _SETTING for f in fields(cls)})


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

    @settings(max_examples=50, deadline=None)
    @given(tols=_settings(Tolerances), thresholds=_settings(CategoryThresholds))
    def test_settings_of_any_number_type_round_trip_through_a_report(self, tols, thresholds):
        report = ReportFile("", "", 2, thresholds, (), tolerances=tols)
        with tempfile.TemporaryDirectory() as tmp:
            save_report(report, Path(tmp) / "report.json")
            loaded = load_report(Path(tmp) / "report.json")
        for made, read in ((tols, loaded.tolerances), (thresholds, loaded.thresholds)):
            assert read == made
            assert all(type(getattr(read, f.name)) is float for f in fields(read))
            assert all(type(getattr(made, f.name)) is float for f in fields(made))

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
