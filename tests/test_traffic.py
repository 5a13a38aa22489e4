"""Demand signal generation: substreams, steps, waves, determinism."""

import pytest

from loopsim.traffic import RegionProfile, TrafficModel, derive_seed


def model(**profiles_kw):
    profiles = {name: RegionProfile(**kw) for name, kw in profiles_kw.items()}
    return TrafficModel(profiles, master_seed=42)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, "traffic:x") == derive_seed(42, "traffic:x")

    def test_label_and_seed_sensitive(self):
        assert derive_seed(42, "traffic:x") != derive_seed(42, "traffic:y")
        assert derive_seed(42, "traffic:x") != derive_seed(43, "traffic:x")


class TestProfiles:
    def test_flat_base(self):
        m = model(r=dict(base=1000.0))
        assert m.truth("r", 0) == 1000.0
        assert m.truth("r", 99) == 1000.0

    def test_steps_change_the_level(self):
        profile = RegionProfile(base=1000.0, steps=((7, 400.0),))
        assert profile.base_at(6) == 1000.0
        assert profile.base_at(7) == 400.0
        assert profile.base_at(100) == 400.0

    def test_later_steps_override_earlier(self):
        profile = RegionProfile(base=10.0, steps=((3, 20.0), (6, 5.0)))
        assert [profile.base_at(t) for t in (0, 3, 5, 6)] == [10.0, 20.0, 20.0, 5.0]

    def test_sinusoid(self):
        m = model(r=dict(base=100.0, amplitude=10.0, period=8))
        assert m.truth("r", 0) == pytest.approx(100.0)
        assert m.truth("r", 2) == pytest.approx(110.0)
        assert m.truth("r", 6) == pytest.approx(90.0)

    def test_truth_is_noiseless(self):
        m = model(r=dict(base=100.0, sigma=50.0))
        assert m.truth("r", 5) == 100.0


class TestSampling:
    def test_sample_is_cached(self):
        m = model(r=dict(base=100.0, sigma=10.0))
        assert m.sample("r", 3) == m.sample("r", 3)

    def test_sample_never_negative(self):
        m = model(r=dict(base=0.0, sigma=100.0))
        assert all(m.sample("r", t) >= 0.0 for t in range(200))

    def test_zero_sigma_equals_truth(self):
        m = model(r=dict(base=123.0))
        assert m.sample("r", 9) == m.truth("r", 9)

    def test_same_seed_same_stream(self):
        a = model(r=dict(base=100.0, sigma=10.0))
        b = model(r=dict(base=100.0, sigma=10.0))
        assert [a.sample("r", t) for t in range(50)] == [
            b.sample("r", t) for t in range(50)
        ]

    def test_regions_have_independent_substreams(self):
        # adding a second region must not shift the first region's noise
        alone = model(x=dict(base=100.0, sigma=10.0))
        paired = TrafficModel(
            {
                "x": RegionProfile(base=100.0, sigma=10.0),
                "y": RegionProfile(base=100.0, sigma=10.0),
            },
            master_seed=42,
        )
        interleaved = []
        for t in range(30):
            paired.sample("y", t)
            interleaved.append(paired.sample("x", t))
        assert interleaved == [alone.sample("x", t) for t in range(30)]

    def test_different_regions_differ(self):
        m = model(x=dict(base=100.0, sigma=10.0), y=dict(base=100.0, sigma=10.0))
        xs = [m.sample("x", t) for t in range(20)]
        ys = [m.sample("y", t) for t in range(20)]
        assert xs != ys
