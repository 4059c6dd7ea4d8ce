"""Tests for the Profiler and its regressions."""

import pytest

from repro.core.profiler import AffineFit, Profiler
from repro.graph.layer import Phase


class TestAffineFit:
    def test_recovers_exact_affine(self):
        fit = AffineFit.fit([1, 2, 4, 8], [3, 5, 9, 17])  # y = 1 + 2x
        assert fit.intercept == pytest.approx(1.0)
        assert fit.slope == pytest.approx(2.0)
        assert fit(16) == pytest.approx(33.0)

    def test_single_sample_falls_back_to_proportional(self):
        fit = AffineFit.fit([4], [8.0])
        assert fit(8) == pytest.approx(16.0)

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            AffineFit.fit([], [])


class TestProfiler:
    def test_interpolation_accuracy(self, toy_decomposed, small_gpu):
        """Section 4.2's claim: the regression interpolates unsampled
        microbatch sizes 'strikingly accurately'."""
        profiles = Profiler(small_gpu, sample_sizes=(1, 2, 4, 8, 16)).profile(
            toy_decomposed
        )
        for unit, profile in zip(toy_decomposed.units, profiles.layers):
            for u in (3, 6, 12):  # unsampled sizes
                true = unit.run_time(small_gpu, Phase.FWD, u)
                if true == 0:
                    continue
                predicted = profile.time(Phase.FWD, u)
                assert predicted == pytest.approx(true, rel=0.05)

    def test_memory_regression_exact(self, toy_decomposed, small_gpu):
        profiles = Profiler(small_gpu).profile(toy_decomposed)
        for unit, profile in zip(toy_decomposed.units, profiles.layers):
            for u in (3, 7):
                assert profile.memory(Phase.BWD, u) == pytest.approx(
                    unit.memory_bytes(Phase.BWD, u), rel=0.01
                )

    def test_bad_sample_sizes_rejected(self, small_gpu):
        with pytest.raises(Exception):
            Profiler(small_gpu, sample_sizes=())
        with pytest.raises(Exception):
            Profiler(small_gpu, sample_sizes=(0, 2))


class TestPackAggregates:
    def test_pack_time_sums_layers(self, toy_profiles):
        from repro.core.config import Pack

        pack = Pack(1, 3)
        total = sum(toy_profiles[i].time(Phase.FWD, 2) for i in (1, 2, 3))
        assert toy_profiles.pack_time(Phase.FWD, pack, 2) == pytest.approx(total)

    def test_pack_memory_is_per_layer_sum(self, toy_profiles):
        """Algorithm 2 line 13 uses m[p].Sum()."""
        from repro.core.config import Pack

        pack = Pack(0, 2)
        expected = sum(toy_profiles[i].memory(Phase.BWD, 2) for i in range(3))
        assert toy_profiles.pack_bwd_memory(pack, 2) == expected

    def test_bwd_pack_memory_exceeds_fwd(self, toy_profiles):
        from repro.core.config import Pack

        pack = Pack(1, 4)
        assert toy_profiles.pack_bwd_memory(pack, 2) > (
            toy_profiles.pack_fwd_memory(pack, 2)
        )

    def test_boundary_sizes(self, toy_profiles):
        from repro.core.config import Pack

        pack = Pack(2, 4)
        assert toy_profiles.boundary_in_bytes(pack, 3) == (
            toy_profiles[2].act_in_bytes(3)
        )
        assert toy_profiles.boundary_out_bytes(pack, 3) == (
            toy_profiles[4].act_out_bytes(3)
        )

    def test_optimizer_bytes_use_slots(self, toy_profiles):
        from repro.core.config import Pack

        pack = Pack(0, 1)
        assert toy_profiles.pack_optimizer_bytes(pack) == (
            toy_profiles.pack_param_bytes(pack) * toy_profiles.optimizer_slots
        )

    def test_saved_for_backward_includes_workspace(self, toy_profiles):
        block = next(p for p in toy_profiles.layers if p.workspace_per_sample)
        assert block.saved_for_backward_bytes(2) > block.act_out_bytes(2)
