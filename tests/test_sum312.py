"""The 3.12 ``sum`` port (``tests/sum312.py``) against 3.12's documented
values, and against the running interpreter where no float rounds."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from tests.sum312 import LONG_MAX, sum312


class TestFloatPath:
    def test_documented_values(self):
        # CPython 3.12's test_builtin.test_sum_accuracy.
        assert sum312([0.1] * 10) == 1.0
        assert sum312([1.0, 10e100, 1.0, -10e100]) == 2.0

    def test_left_to_right_rounds_where_312_does_not(self):
        # The 3.11 fold of the same lists, for contrast.
        assert sum312([0.1, 0.2, 0.3]) == 0.6 != (0.1 + 0.2) + 0.3
        # An int start, then floats: the float path takes over.
        assert sum312([1, 0.1, 0.1, 0.1]) == 1.3 != ((1 + 0.1) + 0.1) + 0.1

    def test_signed_zero_survives(self):
        assert repr(sum312([-0.0])) == "0.0"  # int start 0 + -0.0
        assert repr(sum312([], -0.0)) == "-0.0"
        assert repr(sum312([-0.0, -0.0], -0.0)) == "-0.0"

    def test_infinities_and_overflow(self):
        assert sum312([math.inf, 1.0]) == math.inf
        assert sum312([1e308, 1e308]) == math.inf
        assert sum312([-math.inf, 1.0, 2.0]) == -math.inf
        assert math.isnan(sum312([math.inf, -math.inf]))

    def test_ints_inside_the_float_path_are_not_compensated(self):
        assert sum312([0.5, 1, True], 0.0) == 2.5
        assert sum312([0.1, 2**64]) == 0.1 + 2**64  # overflow: fallback

    def test_float_start(self):
        assert sum312([0.1] * 10, 0.0) == 1.0
        assert sum312([], 1.5) == 1.5


class TestIntPath:
    def test_exact_ints(self):
        assert sum312(range(10)) == 45
        assert sum312([True, True, False]) == 2
        assert type(sum312([True, True])) is int
        assert sum312([], 7) == 7

    def test_past_a_c_long(self):
        assert sum312([LONG_MAX, 1]) == LONG_MAX + 1
        assert sum312([2**70, -(2**70), 3]) == 3
        # An overflowing int ends the int path without entering the
        # float one, so the floats after it add left to right.
        assert sum312([2**70, 0.1, 0.2]) == (2**70 + 0.1) + 0.2

    def test_matches_the_interpreter_on_ints(self):
        rng = random.Random("sum312-ints")
        for _ in range(200):
            values = [rng.randint(-2**66, 2**66)
                      for _ in range(rng.randint(0, 9))]
            assert sum312(values) == sum(values)


class TestFallback:
    def test_other_types(self):
        assert sum312([[1], [2]], []) == [1, 2]
        assert sum312([Fraction(1, 3)] * 3) == 1
        assert sum312([1, Fraction(1, 2)]) == Fraction(3, 2)
        assert sum312([(1,), (2,)], ()) == (1, 2)

    @pytest.mark.parametrize("start", ["", b"", bytearray()])
    def test_string_starts_rejected(self, start):
        with pytest.raises(TypeError, match="can't sum"):
            sum312([], start)

    def test_mixed_types_raise_like_the_interpreter(self):
        with pytest.raises(TypeError):
            sum312([1, "a"])
        with pytest.raises(TypeError):
            sum312([0.5, "a"])

    def test_exact_dyadic_floats_match_the_interpreter(self):
        """With no rounding anywhere, compensation adds nothing."""
        rng = random.Random("sum312-dyadic")
        for _ in range(200):
            values = [rng.randint(-2**20, 2**20) / 1024
                      for _ in range(rng.randint(0, 9))]
            assert sum312(values) == sum(values)
