"""FleetPlacer unit properties: exact arithmetic, ladder, determinism.

The placer is pure bookkeeping -- no RNG, no wall clock -- so every test
here is a hard equality: residuals are :class:`~fractions.Fraction`
values that must round-trip exactly through any reserve/release history,
and identical call sequences must produce identical placements.
"""

from fractions import Fraction

import pytest

from repro.common.errors import SimulationError
from repro.common.rng import seeded_rng
from repro.fleet import FleetPlacer, NoCapacityError, fleet_of

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def placer(servers=2, gpus=4, **kwargs):
    return FleetPlacer(fleet_of(servers, gpus), **kwargs)


class TestReserveLadder:
    def test_full_share_on_free_server_is_identity(self):
        p = placer()
        res = p.reserve("a", 4)
        assert res.kind == "identity"
        assert res.server == 0
        assert res.devices == (0, 1, 2, 3)
        assert res.share == 1
        assert res.binding().is_identity

    def test_second_full_job_lands_on_second_server(self):
        p = placer()
        p.reserve("a", 4)
        res = p.reserve("b", 4)
        assert (res.server, res.devices) == (1, (0, 1, 2, 3))

    def test_fractional_share_is_partition(self):
        p = placer()
        res = p.reserve("a", 4, share=HALF)
        assert res.kind == "partition"
        binding = res.binding()
        assert not binding.topology.is_uniform
        assert all(d.memory_scale == 0.5 for d in binding.topology.devices)
        assert all(d.flops_scale == 1.0 for d in binding.topology.devices)

    def test_partitions_co_reside_on_the_same_gpus(self):
        p = placer(servers=1)
        a = p.reserve("a", 4, share=HALF)
        b = p.reserve("b", 4, share=HALF)
        assert a.devices == b.devices == (0, 1, 2, 3)
        assert p.occupancy() == 1
        assert p.tenants_on(0, 0) == ("a", "b")

    def test_best_fit_fills_carved_gpus_first(self):
        """A second fractional job lands on the already-carved GPUs, not
        on fresh ones -- that keeps whole GPUs free for identity binds."""
        p = placer(servers=1)
        a = p.reserve("a", 2, share=HALF)
        assert a.devices == (0, 1)
        b = p.reserve("b", 2, share=HALF)
        assert b.devices == (0, 1), "best-fit should reuse carved GPUs"
        c = p.reserve("c", 2)
        assert c.devices == (2, 3), "full-share job gets the free GPUs"

    def test_narrow_server_time_slices(self):
        p = placer(servers=1)
        p.reserve("a", 2)
        res = p.reserve("b", 4)
        assert res.kind == "timeslice"
        assert res.devices == (2, 3)
        assert res.n_logical == 4
        binding = res.binding()
        assert binding.n_logical == 4 and binding.n_physical == 2
        assert not binding.injective

    def test_no_capacity_returns_none(self):
        p = placer(servers=1)
        p.reserve("a", 4)
        assert p.reserve("b", 1) is None
        with pytest.raises(NoCapacityError):
            p.require("b", 1)

    def test_allow_timeslice_off_is_full_width_or_nothing(self):
        p = placer(servers=1, allow_timeslice=False)
        p.reserve("a", 2)
        assert p.reserve("b", 4) is None

    def test_allow_sharing_off_blocks_co_residency(self):
        p = placer(servers=1, allow_sharing=False)
        p.reserve("a", 4, share=HALF)
        assert p.reserve("b", 4, share=HALF) is None

    def test_invalid_requests_raise(self):
        p = placer()
        with pytest.raises(SimulationError):
            p.reserve("a", 0)
        with pytest.raises(SimulationError):
            p.reserve("a", 2, share=0)
        with pytest.raises(SimulationError):
            p.reserve("a", 2, share=Fraction(3, 2))


class TestExactAccounting:
    def test_reserve_release_round_trips_exactly(self):
        p = placer()
        history = [
            p.reserve("a", 4),
            p.reserve("b", 3, share=HALF),
            p.reserve("c", 2, share=QUARTER),
            p.reserve("d", 4, share=QUARTER),
        ]
        for res in history:
            assert res is not None
            p.release(res)
        assert p.occupancy() == 0
        for s in range(p.n_servers):
            for g in range(4):
                assert p.residual(s, g) == Fraction(1)

    def test_occupancy_is_exact_fraction(self):
        p = placer(servers=1)
        p.reserve("a", 2, share=HALF)
        assert p.occupancy() == Fraction(1, 4)
        p.reserve("b", 1, share=QUARTER)
        assert p.occupancy() == Fraction(1, 4) + Fraction(1, 16)

    def test_gpu_share_totals(self):
        p = placer()
        res = p.reserve("a", 3, share=HALF)
        assert res.gpu_share == Fraction(3, 2)

    def test_double_release_raises(self):
        p = placer()
        res = p.reserve("a", 2)
        p.release(res)
        with pytest.raises(SimulationError):
            p.release(res)

    def test_residuals_stay_in_unit_interval_under_seeded_churn(self):
        """A seeded storm of random reserve/release churn can never
        drive any GPU's residual outside [0, 1] -- the placer's core
        safety invariant (per-GPU shares always sum to <= 1)."""
        rng = seeded_rng(0, "fleet-churn")
        p = placer(servers=3)
        live = []
        for step in range(300):
            if live and rng.random() < 0.45:
                p.release(live.pop(rng.randrange(len(live))))
            else:
                share = rng.choice([Fraction(1), HALF, QUARTER])
                res = p.reserve(f"t{step % 5}", rng.randrange(1, 5), share)
                if res is not None:
                    live.append(res)
            for s in range(p.n_servers):
                for g in range(4):
                    assert 0 <= p.residual(s, g) <= 1
        for res in live:
            p.release(res)
        assert p.occupancy() == 0

    def test_occupancy_is_the_residual_sum_at_every_step(self):
        """Over 200 seeded reserve/release walks, the running occupancy
        total equals the residual sum it replaces, by ``==`` on exact
        Fractions, after every step."""
        def recomputed(p):
            held = sum(Fraction(1) - p.residual(s, g)
                       for s in range(p.n_servers) for g in range(4))
            return Fraction(held, p.total_gpus)

        for seed in range(200):
            rng = seeded_rng(seed, "fleet-occupancy")
            p = placer(servers=3)
            live = []
            for step in range(60):
                if live and rng.random() < 0.45:
                    p.release(live.pop(rng.randrange(len(live))))
                else:
                    share = rng.choice([Fraction(1), HALF, QUARTER,
                                        Fraction(1, 3)])
                    res = p.reserve(f"t{step % 5}", rng.randrange(1, 6),
                                    share)
                    if res is not None:
                        live.append(res)
                assert p.occupancy() == recomputed(p), (seed, step)
            while live:
                p.release(live.pop())
                assert p.occupancy() == recomputed(p), seed
            assert p.occupancy() == 0


class TestDeterminism:
    def test_identical_histories_place_identically(self):
        def run():
            p = placer(servers=2)
            out = []
            held = {}
            script = [
                ("r", "a", 4, Fraction(1)),
                ("r", "b", 2, HALF),
                ("r", "c", 4, HALF),
                ("x", "b"),
                ("r", "d", 3, QUARTER),
                ("r", "e", 4, Fraction(1)),
            ]
            for op in script:
                if op[0] == "r":
                    res = p.reserve(op[1], op[2], op[3])
                    if res is not None:
                        held[op[1]] = res
                    out.append(res)
                else:
                    p.release(held.pop(op[1]))
            return [(r.server, r.devices, r.share, r.kind)
                    if r is not None else None for r in out]

        assert run() == run()


class TestReporting:
    def test_snapshot_shape(self):
        p = placer()
        p.reserve("a", 4)
        snap = p.snapshot()
        assert snap["servers"] == 2 and snap["gpus"] == 8
        assert snap["placements"] == 1 and snap["active"] == 1
        assert snap["occupancy"] == 0.5
        assert snap["residual"][0] == [0.0] * 4
        assert snap["residual"][1] == [1.0] * 4

    def test_describe_mentions_every_server(self):
        p = placer(servers=3)
        text = p.describe()
        for s in range(3):
            assert f"s{s}:" in text

    def test_active_reservations_in_token_order(self):
        p = placer()
        a = p.reserve("a", 1)
        b = p.reserve("b", 1)
        assert p.active == (a, b)
        p.release(a)
        assert p.active == (b,)
