"""Tests for the Decomposer (graph creation + per-layer code)."""

import hashlib

from repro.core.decomposer import (
    Decomposer,
    KERNEL_NOISE,
    SHAPE_JITTER,
    _noise,
)
from repro.graph.layer import Phase
from repro.models.cnn import tiny_cnn


class TestDecompose:
    def test_units_match_layers(self, toy_model, toy_decomposed):
        assert toy_decomposed.n_layers == toy_model.n_layers
        assert len(toy_decomposed.units) == toy_model.n_layers

    def test_branching_model_sequentialized(self):
        model = tiny_cnn(n_blocks=2)
        decomposed = Decomposer().decompose(model)
        assert decomposed.graph.is_chain()

    def test_deterministic_across_instances(self, toy_model, small_gpu):
        a = Decomposer(seed=3).decompose(toy_model)
        b = Decomposer(seed=3).decompose(toy_model)
        for unit_a, unit_b in zip(a.units, b.units):
            assert unit_a.run_time(small_gpu, Phase.FWD, 4) == (
                unit_b.run_time(small_gpu, Phase.FWD, 4)
            )

    def test_seed_changes_kernel_times(self, toy_model, small_gpu):
        a = Decomposer(seed=0).decompose(toy_model)
        b = Decomposer(seed=1).decompose(toy_model)
        times_a = [u.run_time(small_gpu, Phase.FWD, 4) for u in a.units]
        times_b = [u.run_time(small_gpu, Phase.FWD, 4) for u in b.units]
        assert times_a != times_b

    def test_noise_is_bounded(self, toy_decomposed, small_gpu):
        for unit in toy_decomposed.units:
            for u in (1, 3, 17):
                measured = unit.run_time(small_gpu, Phase.BWD, u)
                exact = small_gpu.compute_time(unit.spec.flops(Phase.BWD, u))
                if exact == 0:
                    continue
                deviation = abs(measured / exact - 1.0)
                assert deviation <= KERNEL_NOISE + SHAPE_JITTER + 1e-9

    def test_memory_bytes_by_phase(self, toy_decomposed):
        unit = toy_decomposed.units[2]
        assert unit.memory_bytes(Phase.BWD, 4) > unit.memory_bytes(Phase.FWD, 4)


def _reference_noise(seed, layer, phase, microbatch):
    """``_noise`` as two inline md5 draws, with no cached component."""
    def draw(*parts):
        digest = hashlib.md5(":".join(str(p) for p in parts).encode()).digest()
        return 2.0 * (int.from_bytes(digest[:8], "big") / 2**64) - 1.0

    return (draw(seed, layer, phase.value) * KERNEL_NOISE
            + draw(seed, layer, phase.value, microbatch) * SHAPE_JITTER)


def test_noise_matches_the_unfactored_formula():
    """Bit for bit, in one process, across seeds, phases, layers and
    sizes: a systematic-draw cache keyed without the seed or the phase
    would return a neighbour's draw here."""
    for seed in (0, 7):
        for phase in Phase:
            for layer in (0, 1, 5, 42):
                for u in (1, 2, 3, 16, 64):
                    assert _noise(seed, layer, phase, u).hex() == \
                        _reference_noise(seed, layer, phase, u).hex(), \
                        (seed, phase, layer, u)
