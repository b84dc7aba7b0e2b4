import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from misspec.errors import InputError
from misspec.model import ModelInstance
from misspec.serialize import (
    dumps,
    fmt_float,
    model_from_dict,
    model_to_dict,
)


class TestFloatFormat:
    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(1)
        for x in rng.standard_normal(500) * np.exp(rng.uniform(-30, 30, 500)):
            assert float(fmt_float(x)) == x

    def test_json_parses_and_round_trips(self):
        payload = {"a": 1 / 3, "b": [1, 2.5, True, None], "c": {"d": "text"}}
        parsed = json.loads(dumps(payload))
        assert parsed["a"] == 1 / 3
        assert parsed["b"] == [1, 2.5, True, None]

    def test_nan_and_inf_become_null(self):
        assert json.loads(dumps({"x": math.nan}))["x"] is None
        assert json.loads(dumps({"x": math.inf}))["x"] is None

    def test_numpy_scalars(self):
        out = json.loads(dumps({"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True)}))
        assert out == {"i": 3, "f": 0.5, "b": True}

    def test_deterministic_output(self):
        obj = {"z": 1.0, "a": [0.1, 0.2]}
        assert dumps(obj) == dumps(obj)


class TestModelJson:
    def test_round_trip(self, canon_model):
        rebuilt = model_from_dict(model_to_dict(canon_model))
        assert_allclose(rebuilt.Y, canon_model.Y)
        assert_allclose(rebuilt.X, canon_model.X)
        assert_allclose(rebuilt.W, canon_model.W)

    def test_missing_fields_named(self):
        with pytest.raises(InputError, match="missing fields: W"):
            model_from_dict({"k": 1, "p": 1, "Y": [1.0], "X": [[1.0]]})

    def test_shape_mismatch_named(self):
        base = model_to_dict(ModelInstance(Y=[0.0, 2.0], X=[[1.0], [1.0]], W=np.eye(2)))
        bad = dict(base, k=3)
        with pytest.raises(InputError, match="length k=3"):
            model_from_dict(bad)

    def test_invariant_failures_named(self):
        with pytest.raises(InputError, match="rank"):
            model_from_dict({
                "k": 2, "p": 2, "Y": [0.0, 0.0],
                "X": [[1.0, 2.0], [2.0, 4.0]], "W": [[1.0, 0.0], [0.0, 1.0]],
            })

