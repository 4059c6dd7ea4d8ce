"""Tests for the Runtime Estimator and the Configuration Search Engine."""

import itertools

import pytest

from repro.core.config import Configuration
from repro.core.estimator import RuntimeEstimator
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.packing import balanced_time_packing
from repro.core.search import ConfigurationSearch, SearchSettings, _candidate_sizes
from repro.core.taskgraph import HarmonyGraphBuilder, ScheduleOptions
from repro.graph.layer import Phase


CAPACITY = 1_300_000


@pytest.fixture
def toy_config(toy_profiles):
    packs_b = balanced_time_packing(Phase.BWD, 1, toy_profiles, CAPACITY)
    packs_f = balanced_time_packing(
        Phase.FWD, 2, toy_profiles, CAPACITY, backward_packs=packs_b
    )
    return Configuration(u_f=2, packs_f=packs_f, u_b=1, packs_b=packs_b)


class TestEstimator:
    def test_estimate_positive_and_deterministic(self, toy_profiles,
                                                 small_server, toy_config):
        graph = HarmonyGraphBuilder(
            toy_profiles, 2, 8, ScheduleOptions(mode="pp")
        ).build(toy_config)
        estimator = RuntimeEstimator(toy_profiles, small_server)
        first = estimator.estimate(graph)
        second = estimator.estimate(graph)
        assert first > 0
        assert first == second

    def test_estimate_tracks_actual(self, toy_model, small_server):
        """The Figure 14 property on the toy model: estimate within ~10%
        of the executed time."""
        harmony = Harmony(toy_model, small_server, minibatch=8,
                          options=HarmonyOptions(capacity_fraction=0.005))
        plan = harmony.plan()
        actual = harmony.run(plan=plan).metrics.iteration_time
        # The toy model's microsecond transfer-bound tasks amplify the
        # contention the estimator ignores; require the right ballpark
        # here and the tight (<15%) bound in the Figure 14 benchmark.
        assert 0.4 < plan.search.best_estimate / actual < 1.6

    def test_more_gpus_not_slower(self, toy_profiles, small_server,
                                  four_gpu_server, toy_config):
        est2 = RuntimeEstimator(toy_profiles, small_server).estimate(
            HarmonyGraphBuilder(toy_profiles, 2, 8,
                                ScheduleOptions(mode="pp")).build(toy_config)
        )
        est4 = RuntimeEstimator(toy_profiles, four_gpu_server).estimate(
            HarmonyGraphBuilder(toy_profiles, 4, 8,
                                ScheduleOptions(mode="pp")).build(toy_config)
        )
        assert est4 <= est2 * 1.2


class TestCandidateSizes:
    def test_exhaustive_is_dense(self):
        assert _candidate_sizes(8, 8, exhaustive=True) == list(range(1, 9))

    def test_default_is_divisors_and_powers(self):
        sizes = _candidate_sizes(64, 12, exhaustive=False)
        assert set(sizes) >= {1, 2, 3, 4, 6, 12}
        assert 8 in sizes  # power of two
        assert 5 not in sizes

    def test_capped_by_total(self):
        assert max(_candidate_sizes(64, 4, exhaustive=False)) == 4


class TestSearch:
    def test_finds_feasible_config(self, toy_profiles, small_server):
        search = ConfigurationSearch(
            toy_profiles, small_server, minibatch=8,
            options=ScheduleOptions(mode="pp"),
            settings=SearchSettings(capacity_fraction=0.005, u_fmax=8,
                                    u_bmax=8),
        )
        result = search.search()
        result.best.validate(len(toy_profiles))
        assert result.best_estimate > 0
        assert result.n_feasible >= 1

    def test_best_is_minimum_of_explored(self, toy_profiles, small_server):
        search = ConfigurationSearch(
            toy_profiles, small_server, minibatch=8,
            options=ScheduleOptions(mode="pp"),
            settings=SearchSettings(capacity_fraction=0.005, u_fmax=8,
                                    u_bmax=8),
        )
        result = search.search()
        assert result.best_estimate == min(e.estimate for e in result.explored)

    def test_equi_fb_restricts_space(self, toy_profiles, small_server):
        distinct = ConfigurationSearch(
            toy_profiles, small_server, 8, ScheduleOptions(mode="pp"),
            SearchSettings(capacity_fraction=0.005, u_fmax=8, u_bmax=8),
        ).search()
        equi = ConfigurationSearch(
            toy_profiles, small_server, 8, ScheduleOptions(mode="pp"),
            SearchSettings(capacity_fraction=0.005, u_fmax=8, u_bmax=8,
                           equi_fb=True),
        ).search()
        assert equi.n_feasible <= distinct.n_feasible
        assert equi.best.u_f == equi.best.u_b
        assert equi.best.packs_f == equi.best.packs_b

    def test_dp_requires_divisible_minibatch(self, toy_profiles, small_server):
        from repro.common.errors import SchedulingError

        search = ConfigurationSearch(
            toy_profiles, small_server, minibatch=7,
            options=ScheduleOptions(mode="dp"),
            settings=SearchSettings(capacity_fraction=0.005),
        )
        with pytest.raises(SchedulingError):
            search.search()

    def test_impossible_capacity_raises(self, toy_profiles, small_server):
        from repro.common.errors import InfeasibleConfigError

        search = ConfigurationSearch(
            toy_profiles, small_server, minibatch=8,
            options=ScheduleOptions(mode="pp"),
            settings=SearchSettings(capacity_fraction=1e-6),
        )
        with pytest.raises(InfeasibleConfigError):
            search.search()


class TestSearchSettings:
    """Out-of-range search knobs fail typed, at construction, instead of
    deep inside Algorithm 2 or as an infeasible search."""

    @pytest.mark.parametrize("field, value", [
        ("u_fmax", 0), ("u_bmax", 0), ("u_bmax", -3),
        ("capacity_fraction", 0.0), ("capacity_fraction", -0.5),
        ("capacity_fraction", 1.5), ("capacity_fraction", float("nan")),
    ])
    def test_out_of_range_knob_raises(self, field, value):
        from repro.common.errors import SchedulingError

        with pytest.raises(SchedulingError, match=field):
            SearchSettings(**{field: value})
        with pytest.raises(SchedulingError, match=field):
            HarmonyOptions(**{field: value})

    def test_edges_are_accepted(self):
        SearchSettings(u_fmax=1, u_bmax=1, capacity_fraction=1.0)
        HarmonyOptions(u_fmax=1, u_bmax=1, capacity_fraction=1.0)


#: The bench zoo's models.
BENCH_ZOO = ("gpt2", "gpt2-medium", "bert96", "bert-large", "vgg416",
             "resnet1k")


@pytest.mark.parametrize("sweep", [{}, {"exhaustive_search": True},
                                   {"equi_fb": True}],
                         ids=["default", "exhaustive", "equi-fb"])
@pytest.mark.parametrize("mode", ["pp", "dp"])
def test_enumeration_is_duplicate_free(mode, sweep):
    """Algorithm 1 never enumerates a four-tuple twice, so it keeps no
    dedupe set: on the bench zoo's problems every candidate is new."""
    from repro.core.decomposer import Decomposer
    from repro.core.profiler import Profiler
    from repro.experiments.common import server_for
    from repro.models.zoo import build_model

    options = HarmonyOptions(mode=mode, **sweep)
    enumerated = 0
    for model in BENCH_ZOO:
        decomposed = Decomposer(seed=options.seed) \
            .decompose(build_model(model))
        for gpus, step in itertools.product((4, 8), (0, 4)):
            server = server_for(gpus)
            profiles = Profiler(server.gpu).profile(decomposed)
            # The bench's warm-up and a timed minibatch size.
            minibatch = 8 + step if mode == "pp" else gpus * (2 + step)
            candidates = ConfigurationSearch(
                profiles, server, minibatch, options.schedule_options(),
                options.search_settings(),
            )._enumerate_candidates()
            keys = [(c.u_f, c.packs_f, c.u_b, c.packs_b) for c in candidates]
            assert len(set(keys)) == len(keys), (model, gpus, minibatch)
            enumerated += len(keys)
    assert enumerated
