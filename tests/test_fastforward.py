"""Fast-forward contract tests: byte-identity off, agreement on.

The contract (PERFORMANCE.md, "Steady-state fast-forward"):

* **Disabled (default)** — :class:`FastForwardServingSession` defers to
  the exact engine wholesale; reports are byte-identical.
* **Refused** — non-stationary scenarios (bursty MMPP, warm-up covering
  the run, too few samples) re-run exactly from scratch; only the
  report's ``fastforward`` annotation records the refusal, every metric
  matches the exact engine bit-for-bit.
* **Engaged** — report-level metrics agree with the exact engine within
  the documented tolerances (goodput/energy 10%, percentiles 25%) and
  the run is itself deterministic per seed.
"""

import json
from dataclasses import replace

import pytest

from repro.eval.serving import ServingExperimentSpec
from repro.platform import PlatformConfig
from repro.policy import PolicySpec
from repro.serve import (
    FastForwardConfig,
    FastForwardServingSession,
    ServingScenario,
    ServingSession,
    TenantSpec,
)

#: Documented report-level agreement tolerances (see PERFORMANCE.md).
GOODPUT_TOL = 0.10
ENERGY_TOL = 0.10
PERCENTILE_TOL = 0.25

#: Small scenario for the byte-identity / refusal paths.
SMALL = ServingScenario(
    process="poisson", offered_rps=80.0, duration_s=0.4, seed=11,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 16}))

#: Steady scenario dense enough for the detector to engage: ~240
#: completions per simulated second against the default 1 s warm-up and
#: 100-sample floor.  Note the duration matters beyond run length: all
#: arrival times are drawn before tenants/workloads from one RNG stream,
#: so changing the horizon reshuffles the warm-up workload mix the
#: detector judges.  This is the perfbench operating point, known-steady
#: for seed 11.
STEADY = ServingScenario(process="poisson", offered_rps=240.0,
                         duration_s=6.0, seed=11)

CONFIG = PlatformConfig(input_scale=0.01)


def canonical_bytes(report) -> bytes:
    return json.dumps(report.to_dict(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def rel_close(a, b, tol):
    scale = max(abs(a), abs(b))
    return scale == 0 or abs(a - b) <= tol * scale


# --------------------------------------------------------------------------- #
# Disabled: byte-identical to the exact engine                                 #
# --------------------------------------------------------------------------- #
def test_disabled_fastforward_is_byte_identical():
    exact = ServingSession(SMALL, CONFIG).run()
    off = FastForwardServingSession(
        SMALL, CONFIG, FastForwardConfig(enabled=False)).run()
    assert canonical_bytes(exact) == canonical_bytes(off)


# --------------------------------------------------------------------------- #
# Refusals: exact rerun + annotation                                           #
# --------------------------------------------------------------------------- #
def _assert_exact_except_annotation(ff_report, exact_report, reason_part):
    meta = ff_report.fastforward
    assert meta is not None and meta["engaged"] is False
    assert reason_part in meta["reason"]
    ff_dict = ff_report.to_dict()
    assert ff_dict.pop("fastforward") == meta
    assert ff_dict == exact_report.to_dict()


def test_refuses_bursty_mmpp_arrivals():
    scenario = replace(SMALL, process="mmpp")
    report = FastForwardServingSession(
        scenario, CONFIG, FastForwardConfig(enabled=True)).run()
    _assert_exact_except_annotation(
        report, ServingSession(scenario, CONFIG).run(), "mmpp")


def test_refuses_when_warmup_covers_the_run():
    report = FastForwardServingSession(
        SMALL, CONFIG,
        FastForwardConfig(enabled=True, warmup_s=1.0)).run()
    _assert_exact_except_annotation(
        report, ServingSession(SMALL, CONFIG).run(), "warm-up window")


def test_refuses_sparse_warmup():
    # 80 rps yields far fewer than min_samples completions in 0.2 s.
    scenario = replace(SMALL, duration_s=0.4)
    report = FastForwardServingSession(
        scenario, CONFIG,
        FastForwardConfig(enabled=True, warmup_s=0.2)).run()
    _assert_exact_except_annotation(
        report, ServingSession(scenario, CONFIG).run(),
        "too few warm-up completions")


# --------------------------------------------------------------------------- #
# Engaged: agreement within documented tolerances                              #
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def steady_pair():
    exact = ServingSession(STEADY, CONFIG).run()
    ff = FastForwardServingSession(
        STEADY, CONFIG, FastForwardConfig(enabled=True)).run()
    return exact, ff


def test_engages_on_steady_poisson(steady_pair):
    _, ff = steady_pair
    meta = ff.fastforward
    assert meta is not None and meta["engaged"] is True
    assert meta["reason"] == "steady"
    assert meta["analytic_requests"] > 0
    assert meta["calibration_samples"] > 0


def test_engaged_run_sees_identical_offered_traffic(steady_pair):
    exact, ff = steady_pair
    # Arrivals are generated from the scenario seed before the engines
    # diverge, so the offered count must match exactly.
    assert ff.offered == exact.offered


def test_engaged_goodput_and_energy_agree(steady_pair):
    exact, ff = steady_pair
    assert rel_close(ff.goodput_rps, exact.goodput_rps, GOODPUT_TOL)
    assert rel_close(ff.energy_j, exact.energy_j, ENERGY_TOL)


def test_engaged_latency_percentiles_agree(steady_pair):
    exact, ff = steady_pair
    for attr in ("p50_s", "p95_s", "p99_s"):
        e, f = getattr(exact, attr), getattr(ff, attr)
        assert e is not None and f is not None
        assert rel_close(e, f, PERCENTILE_TOL), \
            f"{attr}: exact {e:.4f} vs fast-forward {f:.4f}"


def test_engaged_run_is_deterministic(steady_pair):
    _, ff = steady_pair
    again = FastForwardServingSession(
        STEADY, CONFIG, FastForwardConfig(enabled=True)).run()
    assert canonical_bytes(ff) == canonical_bytes(again)


# --------------------------------------------------------------------------- #
# Config + experiment-spec plumbing                                            #
# --------------------------------------------------------------------------- #
def test_config_round_trips_and_validates():
    config = FastForwardConfig(enabled=True, warmup_s=0.5,
                               min_samples=50, rel_tol=0.1)
    assert FastForwardConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError):
        FastForwardConfig(warmup_s=0.0)
    with pytest.raises(ValueError):
        FastForwardConfig(min_samples=1)
    with pytest.raises(ValueError):
        FastForwardConfig(rel_tol=0.0)


def test_spec_key_folds_fastforward_only_when_set():
    plain = ServingExperimentSpec(scenario=SMALL, config=CONFIG)
    defaulted = ServingExperimentSpec(scenario=SMALL, config=CONFIG,
                                      fastforward=None)
    enabled = ServingExperimentSpec(
        scenario=SMALL, config=CONFIG,
        fastforward=FastForwardConfig(enabled=True))
    # Pre-fast-forward cache entries stay addressable...
    assert plain.key == defaulted.key
    # ...while approximated results never alias exact ones.
    assert enabled.key != plain.key
