"""The integer-unit placer against the Fraction placer it replaced.

:class:`~repro.fleet.placer.FleetPlacer` keeps capacity as ints in
``1/den`` units and refines ``den`` in place when a share with a new
denominator arrives.  Hypothesis drives it and
:class:`tests.fleet.naive_placer.NaivePlacer` through the same
reserve/release walks -- shares whose denominators (3, 12 and the 2**k
of the float shares) refine ``den`` mid-walk, fleets of uneven width,
both ``allow_*`` flags -- and after every step the two must agree on
each reservation, every residual, the occupancy (as an exact Fraction
and as float bits), the snapshot and the description.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.cluster.spec import ClusterSpec
from repro.experiments.common import server_for
from repro.fleet import FleetPlacer
from tests.fleet.naive_placer import NaivePlacer

SHARES = (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 3),
          Fraction(2, 3), Fraction(5, 12), 0.3, 0.1)

reserve_step = st.tuples(st.just("reserve"), st.integers(1, 9),
                         st.sampled_from(SHARES))
release_step = st.tuples(st.just("release"), st.integers(0, 63),
                         st.none())


def _assert_agree(fast: FleetPlacer, ref: NaivePlacer) -> None:
    for server, spec in enumerate(fast.cluster.servers):
        for gpu in range(spec.n_gpus):
            got = fast.residual(server, gpu)
            assert type(got) is Fraction
            assert got == ref.residual(server, gpu)
    assert type(fast.occupancy()) is Fraction
    assert fast.occupancy() == ref.occupancy()
    assert fast.occupancy_float().hex() == float(ref.occupancy()).hex()
    # repr, not ==: 1 == 1.0, but a snapshot float must keep its type
    assert repr(fast.snapshot()) == repr(ref.snapshot())
    assert fast.describe() == ref.describe()


@settings(max_examples=150, deadline=None)
@given(widths=st.lists(st.integers(2, 8), min_size=1, max_size=3),
       allow_sharing=st.booleans(), allow_timeslice=st.booleans(),
       steps=st.lists(st.one_of(reserve_step, release_step), max_size=40))
def test_walks_match_the_fraction_placer(widths, allow_sharing,
                                         allow_timeslice, steps):
    cluster = ClusterSpec(servers=tuple(server_for(n) for n in widths))
    flags = dict(allow_sharing=allow_sharing,
                 allow_timeslice=allow_timeslice)
    fast, ref = FleetPlacer(cluster, **flags), NaivePlacer(cluster, **flags)
    live = []
    for i, (op, arg, share) in enumerate(steps):
        if op == "release":
            if not live:
                continue
            res = live.pop(arg % len(live))
            fast.release(res)
            ref.release(res)
        else:
            got = fast.reserve(f"t{i % 4}", arg, share)
            want = ref.reserve(f"t{i % 4}", arg, share)
            assert got == want
            if got is not None:
                live.append(got)
        _assert_agree(fast, ref)
    while live:
        res = live.pop()
        fast.release(res)
        ref.release(res)
        _assert_agree(fast, ref)
    assert fast.occupancy() == 0
