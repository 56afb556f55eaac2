"""Every real-valued config field goes through ``errors.check_real``: a bool,
a string, a non-finite or an out-of-range value is refused, naming the field.
``MergeConfig.level`` goes through ``check_int`` the same way."""

import math

import numpy as np
import pytest

from conceptmine.dataset import SyntheticSpec
from conceptmine.errors import ValidationError, check_real
from conceptmine.head import HeadTrainConfig
from conceptmine.mining import MergeConfig, MiningConfig
from conceptmine.occlusion import OcclusionConfig
from conceptmine.partproto import McmConfig

# "Config.field", a function building the config from that field's value,
# and values outside the field's range.
REAL_FIELDS = [
    ("McmConfig.lr", lambda v: McmConfig(lr=v), [0, -0.1]),
    ("McmConfig.m1", lambda v: McmConfig(m1=v), [-0.1]),
    ("McmConfig.m2", lambda v: McmConfig(m2=v), [-0.1]),
    ("HeadTrainConfig.lam", lambda v: HeadTrainConfig(lam=v), [-1e-9]),
    ("HeadTrainConfig.gamma", lambda v: HeadTrainConfig(gamma=v), [-0.1, 1.5]),
    ("HeadTrainConfig.lr", lambda v: HeadTrainConfig(lr=v), [0, -1]),
    ("HeadTrainConfig.beta", lambda v: HeadTrainConfig(beta=v), [0, -1]),
    # A fixed eps given with its min_pts; the id keeps the name of the type
    # that held this pair before MiningConfig did.
    ("DbscanParams.eps", lambda v: MiningConfig(eps=v, min_pts=3), [0, -1]),
    ("MiningConfig.eps", lambda v: MiningConfig(eps=v), [0]),
    ("SyntheticSpec.noise_sigma", lambda v: SyntheticSpec(noise_sigma=v), [-0.1]),
    ("SyntheticSpec.min_separation", lambda v: SyntheticSpec(min_separation=v),
     [-1]),
    ("MergeConfig.threshold_pct", lambda v: MergeConfig(threshold_pct=v),
     [-1, 100.5]),
    ("OcclusionConfig.fractions", lambda v: OcclusionConfig(fractions=(v,)),
     [-0.1, 1.5]),
]


@pytest.mark.parametrize("make, field, value", [
    pytest.param(make, label.split(".")[1], value, id=f"{label}-{value!r}")
    for label, make, out_of_range in REAL_FIELDS
    for value in [True, False, "0.5", math.nan, math.inf, -math.inf, 10**400,
                  *out_of_range]])
def test_real_fields_refuse_bad_values(make, field, value):
    with pytest.raises(ValidationError, match=field):
        make(value)


@pytest.mark.parametrize("make", [make for _, make, _ in REAL_FIELDS],
                         ids=[label for label, _, _ in REAL_FIELDS])
def test_real_fields_take_numpy_and_int_values(make):
    for value in (np.float64(0.5), np.float32(0.25), 1):
        make(value)


@pytest.mark.parametrize("level", [0, 4, True, 1.0, "1"])
def test_merge_level_refuses_bad_values(level):
    with pytest.raises(ValidationError, match="level"):
        MergeConfig(threshold_pct=5, level=level)


@pytest.mark.parametrize("value, low, high, low_open, ok", [
    (0.0, 0, math.inf, False, True),
    (0.0, 0, math.inf, True, False),
    (1e-300, 0, math.inf, True, True),
    (1.0, 0, 1, False, True),
    (1.0 + 1e-12, 0, 1, False, False),
    (-1, -2, -1, False, True),
])
def test_check_real_bounds(value, low, high, low_open, ok):
    if ok:
        check_real("x", value, low, high, low_open)
    else:
        with pytest.raises(ValidationError, match="x must be a finite number"):
            check_real("x", value, low, high, low_open)
