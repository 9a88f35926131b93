"""Quality of the counter-based draws (``repro.sim.rng.Draws``).

Every random number the simulation uses below the workload generators is
draw ``i`` of a stream keyed by its coordinates: a network channel's
latency (``net/{src}->{dst}/{kind}``), a lossy channel's fault decisions
(``faults/{src}->{dst}/{kind}``) and an application interval's draws
(``(seed, pid, inc, sii)``).  These tests check, for each kind, that the
draws are uniform (a hand-written Kolmogorov-Smirnov test on 10^5 draws),
that neighbouring streams and neighbouring draws are uncorrelated, and
that a draw is a pure function of its stream and index.
"""

import math

import pytest

from repro.app.behavior import AppContext
from repro.net.channel import Channel, UniformLatency
from repro.net.faults import ChannelFaults, NetworkFaultModel
from repro.sim.rng import Draws, RngRegistry, draw64, interval_key

N = 100_000
#: Kolmogorov-Smirnov critical value at significance 0.001 (asymptotic).
KS_CRITICAL = 1.95 / math.sqrt(N)


def ks_uniform(samples):
    """The Kolmogorov-Smirnov statistic of ``samples`` against U[0, 1)."""
    xs = sorted(samples)
    n = len(xs)
    return max(max((i + 1) / n - x, x - i / n) for i, x in enumerate(xs))


def correlation(xs, ys):
    """Pearson's correlation coefficient of two equally long samples."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


def channel_draws(src, dst, count=N, seed=11):
    """A channel's latency draws on U[0, 1), as the network keys them."""
    channel = Channel(RngRegistry(seed).key(f"net/{src}->{dst}/app"))
    delay = UniformLatency(0.0, 1.0).delay
    return [delay(channel) for _ in range(count)]


def fault_draws(count=N, seed=11):
    """A lossy channel's reorder delays on U[0, 1): each decision is one
    draw, and the delay is what the duplicate coin ahead of the (certain)
    reorder coin leaves of it, rescaled."""
    model = NetworkFaultModel(RngRegistry(seed), ChannelFaults(
        duplicate=0.2, reorder=1.0, reorder_spread=1.0))
    return [model.decide(3, 7, control=False).extra_delay
            for _ in range(count)]


def interval_draws(first_sii=0, count=N, seed=42, pid=3, inc=1):
    """The first draw of each of ``count`` consecutive intervals: the
    stream ``AppContext.rng`` hands the interval's handler
    (``tests/app/test_behavior.py`` pins that it is this one)."""
    return [Draws(interval_key(seed, pid, inc, sii)).random()
            for sii in range(first_sii, first_sii + count)]


@pytest.fixture(scope="module")
def samples():
    return {"channel": channel_draws(3, 7), "fault": fault_draws(),
            "app interval": interval_draws()}


@pytest.mark.parametrize("kind", ["channel", "fault", "app interval"])
def test_each_stream_kind_is_uniform(samples, kind):
    draws = samples[kind]
    assert len(draws) == N
    assert all(0.0 <= x < 1.0 for x in draws)
    assert ks_uniform(draws) < KS_CRITICAL


def test_ks_statistic_rejects_a_skewed_sample(samples):
    # Not vacuous: squared draws fail the test by far (D = 1/4).
    skewed = [x * x for x in samples["channel"][:20_000]]
    assert ks_uniform(skewed) > 10 * 1.95 / math.sqrt(20_000)


def test_one_draw_gives_independent_fault_coins():
    # Each decision is one draw: the drop, duplicate and reorder coins
    # must still come up at their rates, and independently.
    count = 20_000
    model = NetworkFaultModel(RngRegistry(3), ChannelFaults(
        drop=0.1, duplicate=0.2, reorder=0.3))
    decisions = [model.decide(0, 1, control=False) for _ in range(count)]
    kept = [d for d in decisions if not d.drop]
    dup = [d.duplicate for d in kept]
    reordered = [d.extra_delay > 0 for d in kept]
    both = [a and b for a, b in zip(dup, reordered)]

    def near(observed, p, n):
        return abs(observed / n - p) < 4 * math.sqrt(p * (1 - p) / n)

    assert near(count - len(kept), 0.1, count)
    assert near(sum(dup), 0.2, len(kept))
    assert near(sum(reordered), 0.3, len(kept))
    assert near(sum(both), 0.2 * 0.3, len(kept))


class TestCorrelation:
    BOUND = 4.0 / math.sqrt(20_000)

    def test_neighbouring_channels(self):
        count = 20_000
        assert abs(correlation(channel_draws(3, 7, count),
                               channel_draws(3, 8, count))) < self.BOUND

    def test_neighbouring_intervals(self, samples):
        # Interval sii against interval sii + 1, over 10^5 - 1 pairs.
        draws = samples["app interval"]
        assert abs(correlation(draws[:-1], draws[1:])) < 4.0 / math.sqrt(N)

    def test_neighbouring_incarnations(self):
        count = 10_000
        assert abs(correlation(interval_draws(count=count, inc=1),
                               interval_draws(count=count, inc=2))) \
            < 4.0 / math.sqrt(count)

    @pytest.mark.parametrize("kind", ["channel", "fault"])
    def test_draw_i_against_draw_i_plus_1(self, samples, kind):
        draws = samples[kind]
        assert abs(correlation(draws[:-1], draws[1:])) < 4.0 / math.sqrt(N)

    def test_draw_i_against_draw_i_plus_1_within_an_interval(self):
        ctx = AppContext(3, 8, 1, 7, seed=42)
        draws = [ctx.rng.random() for _ in range(20_000)]
        assert ks_uniform(draws) < 1.95 / math.sqrt(20_000)
        assert abs(correlation(draws[:-1], draws[1:])) < self.BOUND


class TestPurity:
    def test_draw_i_does_not_depend_on_what_was_drawn_before(self):
        key = RngRegistry(5).key("net/1->2/app")
        plain = Draws(key)
        mixed = Draws(key)
        for i in range(200):
            # However the earlier draws were consumed, draw i is draw i.
            if i % 3 == 0:
                mixed.randrange(7)
            elif i % 3 == 1:
                mixed.uniform(-5.0, 5.0)
            else:
                mixed.random()
            plain.random()
        assert mixed.index == plain.index == 200
        assert mixed.random() == plain.random()

    def test_a_draw_is_a_function_of_its_coordinates(self):
        key = interval_key(42, 3, 1, 7)
        sequential = Draws(key)
        values = [sequential.random() for _ in range(50)]
        for i in (0, 17, 49):
            assert Draws(key, index=i).random() == values[i]
            assert (draw64(key, i) >> 11) * 2.0 ** -53 == values[i]

    def test_a_replayed_interval_draws_what_its_first_run_drew(self):
        first = AppContext(3, 8, 1, 7, seed=42)
        again = AppContext(3, 8, 1, 7, seed=42)
        assert ([first.rng.randrange(7) for _ in range(20)]
                == [again.rng.randrange(7) for _ in range(20)])

    def test_randrange_covers_its_range_and_stays_inside(self):
        draws = Draws(interval_key(1, 2, 3, 4))
        values = [draws.randrange(5) for _ in range(2_000)]
        assert set(values) == set(range(5))
        with pytest.raises(ValueError):
            draws.randrange(0)
