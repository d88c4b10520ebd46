"""Per-tenant admission: the token bucket, quota checks, and the quota
options' validation where they are read."""

from __future__ import annotations

import math

import pytest

from repro.cli import main
from repro.errors import ConfigError, QuotaExceededError, RateLimitedError
from repro.obs.counters import FAULT_COUNTERS
from repro.service.http import ReproService
from repro.service.scheduler import TenantQuotas, TokenBucket


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        wait = bucket.try_take()
        assert wait == pytest.approx(1.0)
        clock.tick(1.0)
        assert bucket.try_take() == 0.0

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.tick(100.0)  # long idle must not bank 1000 tokens
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        assert bucket.try_take() > 0.0

    def test_zero_rate_never_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=clock)
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == float("inf")


class TestTenantQuotas:
    def test_disabled_quotas_admit_everything(self):
        quotas = TenantQuotas()
        for _ in range(100):
            quotas.admit("a", active=10_000)

    def test_max_active_cap(self):
        quotas = TenantQuotas(max_active=2, quota_retry_after=7.0)
        quotas.admit("a", active=1)
        before = FAULT_COUNTERS.snapshot()
        with pytest.raises(QuotaExceededError) as err:
            quotas.admit("a", active=2)
        assert err.value.tenant == "a"
        assert err.value.active == 2
        assert err.value.limit == 2
        assert err.value.retry_after_seconds == 7.0
        delta = FAULT_COUNTERS.delta_since(before)
        assert delta.get("service.quota_rejected") == 1

    def test_rate_limit_is_per_tenant(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate=1.0, burst=1.0, clock=clock)
        quotas.admit("a", active=0)
        with pytest.raises(RateLimitedError) as err:
            quotas.admit("a", active=0)
        assert err.value.tenant == "a"
        assert err.value.retry_after_seconds > 0
        quotas.admit("b", active=0)  # b has its own bucket
        clock.tick(1.0)
        quotas.admit("a", active=0)  # refilled

    def test_burst_defaults_to_rate(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate=3.0, clock=clock)
        for _ in range(3):
            quotas.admit("a", active=0)
        with pytest.raises(RateLimitedError):
            quotas.admit("a", active=0)

    def test_rate_limit_is_counted(self):
        quotas = TenantQuotas(rate=1.0, clock=FakeClock())
        quotas.admit("a", active=0)
        before = FAULT_COUNTERS.snapshot()
        with pytest.raises(RateLimitedError) as err:
            quotas.admit("a", active=0)
        assert math.isfinite(err.value.retry_after_seconds)
        delta = FAULT_COUNTERS.delta_since(before)
        assert delta.get("service.rate_limited") == 1


class TestQuotaOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_active": 0},
            {"max_active": -3},
            {"rate": 0.0},
            {"rate": -1.0},
            {"rate": float("inf")},
            {"rate": float("nan")},
            {"rate": 1.0, "burst": 0.5},
            {"rate": 1.0, "burst": float("inf")},
            {"rate": 1.0, "burst": float("nan")},
            {"burst": 2.0},
        ],
    )
    def test_unusable_limits_refused(self, kwargs):
        with pytest.raises(ConfigError):
            TenantQuotas(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_active": 1},
            {"rate": 0.001},
            {"rate": 2.0, "burst": 1.0},
            {"max_active": 4, "rate": 5.0, "burst": 10.0},
        ],
    )
    def test_usable_limits_admitted(self, kwargs):
        TenantQuotas(**kwargs).admit("a", active=0)

    def test_burst_alone_turns_quotas_on(self, tmp_path):
        with pytest.raises(ConfigError, match="burst needs a quota rate"):
            ReproService(str(tmp_path / "state"), quota_burst=2.0)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--quota-rate", "-1"],
            ["--quota-rate", "0"],
            ["--quota-burst", "3"],
            ["--quota-rate", "1", "--quota-burst", "0"],
            ["--quota-max-active", "0"],
        ],
    )
    def test_serve_exits_before_binding(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        async def serve_forever(self, *args, **kwargs):
            raise AssertionError("repro serve got as far as serving")

        # A regression must fail here, not serve until the test times out.
        monkeypatch.setattr(ReproService, "serve_forever", serve_forever)
        state = tmp_path / "state"
        code = main(
            ["serve", "--port", "0", "--state-dir", str(state),
             "--cache-dir", str(tmp_path / "cache")] + flags
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: quota ")
        assert "listening" not in out
        assert not state.exists()
