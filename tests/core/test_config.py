"""Tests for configurations and pack helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SchedulingError
from repro.core.config import (
    Configuration,
    Pack,
    even_packs,
    microbatch_group,
    packs_from_boundaries,
    validate_packs,
)


class TestPack:
    def test_properties(self):
        pack = Pack(2, 5)
        assert pack.n_layers == 4
        assert list(pack.layers) == [2, 3, 4, 5]
        assert str(pack) == "L2-5"

    def test_singleton_rendering(self):
        assert str(Pack(7, 7)) == "L7"

    def test_bad_bounds_rejected(self):
        with pytest.raises(SchedulingError):
            Pack(3, 2)
        with pytest.raises(SchedulingError):
            Pack(-1, 2)

    def test_ordering(self):
        assert Pack(0, 1) < Pack(2, 3)


class TestValidation:
    def test_valid_tiling(self):
        validate_packs([Pack(0, 2), Pack(3, 3), Pack(4, 9)], 10)

    def test_gap_rejected(self):
        with pytest.raises(SchedulingError):
            validate_packs([Pack(0, 2), Pack(4, 9)], 10)

    def test_overlap_rejected(self):
        with pytest.raises(SchedulingError):
            validate_packs([Pack(0, 3), Pack(3, 9)], 10)

    def test_short_coverage_rejected(self):
        with pytest.raises(SchedulingError):
            validate_packs([Pack(0, 5)], 10)

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            validate_packs([], 3)


class TestBuilders:
    def test_packs_from_boundaries(self):
        packs = packs_from_boundaries([0, 4, 7], 10)
        assert packs == (Pack(0, 3), Pack(4, 6), Pack(7, 9))

    def test_boundaries_must_start_at_zero(self):
        with pytest.raises(SchedulingError):
            packs_from_boundaries([1, 4], 10)

    def test_even_packs(self):
        packs = even_packs(10, 3)
        assert [p.n_layers for p in packs] == [4, 3, 3]

    def test_even_packs_bounds(self):
        with pytest.raises(SchedulingError):
            even_packs(3, 5)

    @given(st.integers(1, 50), st.integers(1, 50))
    def test_even_packs_always_tile(self, n_layers, n_packs):
        if n_packs > n_layers:
            return
        packs = even_packs(n_layers, n_packs)
        validate_packs(packs, n_layers)
        assert len(packs) == n_packs


class TestConfiguration:
    def test_jit_alignment_detection(self):
        packs = (Pack(0, 3), Pack(4, 9))
        config = Configuration(u_f=2, packs_f=packs, u_b=1, packs_b=packs)
        assert config.jit_compute_aligned
        other = Configuration(
            u_f=2, packs_f=(Pack(0, 5), Pack(6, 9)), u_b=1, packs_b=packs
        )
        assert not other.jit_compute_aligned

    def test_validate_checks_both_sides(self):
        config = Configuration(
            u_f=2, packs_f=(Pack(0, 9),), u_b=1, packs_b=(Pack(0, 5),)
        )
        with pytest.raises(SchedulingError):
            config.validate(10)

    def test_describe_and_pack_table(self):
        packs = (Pack(0, 3), Pack(4, 9))
        config = Configuration(u_f=2, packs_f=packs, u_b=1, packs_b=packs)
        assert "U_F=2" in config.describe()
        assert "L0-3" in config.pack_table()

    def test_positive_microbatches_required(self):
        with pytest.raises(SchedulingError):
            Configuration(u_f=0, packs_f=(Pack(0, 1),), u_b=1,
                          packs_b=(Pack(0, 1),))


class TestMicrobatchGroup:
    def test_exact_division(self):
        assert microbatch_group(8, 4) == (4, 4)

    def test_remainder_last(self):
        assert microbatch_group(10, 4) == (4, 4, 2)

    def test_single_large(self):
        assert microbatch_group(3, 100) == (3,)

    def test_bad_inputs(self):
        with pytest.raises(SchedulingError):
            microbatch_group(0, 4)
        with pytest.raises(SchedulingError):
            microbatch_group(4, 0)

    @given(st.integers(1, 200), st.integers(1, 64))
    def test_group_always_sums_to_total(self, total, size):
        group = microbatch_group(total, size)
        assert sum(group) == total
        assert all(0 < g <= size for g in group)
