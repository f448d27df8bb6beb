import math

import pytest

from convergesim.netmodel import (
    MIB_4,
    Anchors,
    CalibrationError,
    PathAnchors,
    allreduce_mu,
    allreduce_time,
    barrier_time,
    calibrate,
    collective_penalty,
    default_network,
    load_anchors,
    p2p_bandwidth,
    p2p_latency,
    pre_efa_ethernet,
    solve_barrier_base,
)

ANCHORS = load_anchors()
NET = calibrate(ANCHORS)


def test_shipped_anchor_values():
    assert ANCHORS.os_bypass.latency_1b_s == 7.46e-6
    assert ANCHORS.tap_relay.latency_1b_s == 12.31e-6
    assert ANCHORS.os_bypass.bw_1b_Bps == 1.712e6
    assert ANCHORS.tap_relay.bw_1b_Bps == 1.3e6
    assert ANCHORS.os_bypass.bw_4mib_Bps == 24.202e9
    assert ANCHORS.tap_relay.bw_4mib_Bps == 24.125e9
    assert ANCHORS.barrier_gap_4node_s == 31.89e-6
    assert ANCHORS.barrier_excess_fraction == 0.7868
    assert ANCHORS.allreduce_mu == ((4, 3.6, 13.7), (32, 2.89, 4.32))


def test_half_saturation_solved_from_the_two_bandwidth_anchors():
    # independent solve: BW(m) = BW_inf m/(m+m_half) with BW_inf pinned at
    # the 4 MiB anchor makes m_half = BW_inf/BW(1) - 1
    expect_bypass = 24.202e9 / 1.712e6 - 1.0
    expect_tap = 24.125e9 / 1.3e6 - 1.0
    assert NET.os_bypass.m_half_B == pytest.approx(expect_bypass, rel=1e-12)
    assert NET.tap_relay.m_half_B == pytest.approx(expect_tap, rel=1e-12)
    assert expect_bypass == pytest.approx(14136.68, abs=1.0)
    assert expect_tap == pytest.approx(18556.69, abs=1.0)


def test_latency_anchors_roundtrip():
    lat_bypass = p2p_latency(NET.os_bypass, 1)
    lat_tap = p2p_latency(NET.tap_relay, 1)
    assert lat_bypass == pytest.approx(7.46e-6, rel=5e-3)
    assert lat_tap == pytest.approx(12.31e-6, rel=5e-3)
    # the transfer term at 1 byte is ~4.1e-11 s, negligible next to L0
    assert lat_bypass - 7.46e-6 == pytest.approx(1.0 / 24.202e9, rel=1e-9)
    # the relay path is ~65% slower at the smallest size
    assert lat_tap / lat_bypass == pytest.approx(1.65, abs=0.01)


def test_zero_byte_message_clamps_to_one():
    assert p2p_latency(NET.os_bypass, 0) == p2p_latency(NET.os_bypass, 1)
    assert p2p_bandwidth(NET.tap_relay, 0) == p2p_bandwidth(NET.tap_relay, 1)


def test_bandwidth_anchors_roundtrip():
    # exact at 1 byte by construction
    assert p2p_bandwidth(NET.os_bypass, 1) == pytest.approx(1.712e6, rel=1e-12)
    assert p2p_bandwidth(NET.tap_relay, 1) == pytest.approx(1.3e6, rel=1e-12)
    # within 1% at 4 MiB (two-parameter fit residual)
    bw_bypass = p2p_bandwidth(NET.os_bypass, MIB_4)
    bw_tap = p2p_bandwidth(NET.tap_relay, MIB_4)
    assert bw_bypass == pytest.approx(24.202e9, rel=0.01)
    assert bw_tap == pytest.approx(24.125e9, rel=0.01)
    # evaluating the fitted curve lands near 24,121 MB/s, 0.4% under the anchor
    expected = 24.202e9 * MIB_4 / (MIB_4 + (24.202e9 / 1.712e6 - 1.0))
    assert bw_bypass == pytest.approx(expected, rel=1e-12)
    assert abs(bw_bypass - 24.202e9) / 24.202e9 < 0.004


def test_bandwidth_is_monotone_in_message_size():
    for params in (NET.os_bypass, NET.tap_relay):
        m = 1.0
        while m < MIB_4:
            assert p2p_bandwidth(params, 2 * m) > p2p_bandwidth(params, m)
            m *= 2


def test_barrier_base_solves_the_gap_and_excess():
    # independent algebra: tap = bypass + gap and tap = (1+excess) * bypass
    gap, excess = 31.89e-6, 0.7868
    bypass_expected = gap / excess
    tap_expected = bypass_expected + gap
    assert bypass_expected == pytest.approx(40.53e-6, rel=1e-3)
    assert tap_expected == pytest.approx(72.42e-6, rel=1e-3)
    solved = solve_barrier_base(gap, excess)
    assert solved == (bypass_expected, tap_expected)
    assert barrier_time(NET.os_bypass, 4) == pytest.approx(bypass_expected, rel=5e-3)
    assert barrier_time(NET.tap_relay, 4) == pytest.approx(tap_expected, rel=5e-3)


def test_barrier_scales_logarithmically():
    ratio = barrier_time(NET.os_bypass, 8) / barrier_time(NET.os_bypass, 4)
    assert ratio == pytest.approx(math.log2(8) / math.log2(4), rel=1e-12)
    with pytest.raises(ValueError):
        barrier_time(NET.os_bypass, 1)


def test_allreduce_multiplier_hits_the_anchored_extremes():
    assert allreduce_mu(NET.tap_relay, 4, 4) == pytest.approx(13.7)
    assert allreduce_mu(NET.tap_relay, MIB_4, 4) == pytest.approx(3.6)
    assert allreduce_mu(NET.tap_relay, 4, 32) == pytest.approx(4.32)
    assert allreduce_mu(NET.tap_relay, MIB_4, 32) == pytest.approx(2.89)


def test_allreduce_multiplier_stays_inside_the_bands():
    m = 4
    while m <= MIB_4:
        mu4 = allreduce_mu(NET.tap_relay, m, 4)
        mu32 = allreduce_mu(NET.tap_relay, m, 32)
        assert 3.6 - 1e-9 <= mu4 <= 13.7 + 1e-9
        assert 2.89 - 1e-9 <= mu32 <= 4.32 + 1e-9
        m *= 2


def test_allreduce_ratio_between_paths_is_the_multiplier():
    for m in (4, 512, 65536, MIB_4):
        for p in (4, 8, 16, 32):
            ratio = allreduce_time(NET.tap_relay, m, p) / allreduce_time(
                NET.os_bypass, m, p
            )
            assert ratio == pytest.approx(allreduce_mu(NET.tap_relay, m, p), rel=1e-12)


def test_path_dominance_everywhere():
    p_values = (2, 4, 8, 16, 32)
    m = 1
    while m <= MIB_4:
        assert p2p_latency(NET.tap_relay, m) >= p2p_latency(NET.os_bypass, m)
        assert p2p_bandwidth(NET.tap_relay, m) <= p2p_bandwidth(NET.os_bypass, m)
        for p in p_values:
            assert barrier_time(NET.tap_relay, p) >= barrier_time(NET.os_bypass, p)
            if m >= 4:
                assert allreduce_time(NET.tap_relay, m, p) >= allreduce_time(
                    NET.os_bypass, m, p
                )
        m *= 4


def test_overhead_penalty_neutral_when_not_running():
    off, on = False, True
    for p in (2, 4, 8, 16, 32, 64):
        assert collective_penalty(p, off) == 1.0
    assert collective_penalty(4, on) == 1.0
    assert collective_penalty(16, on) == 1.15
    assert collective_penalty(32, on) == 1.3
    # bit-exact equality against the default (no-overhead) evaluation
    assert barrier_time(NET.os_bypass, 32, off) == barrier_time(NET.os_bypass, 32)
    assert allreduce_time(NET.os_bypass, 1024, 32, off) == allreduce_time(
        NET.os_bypass, 1024, 32
    )
    assert barrier_time(NET.os_bypass, 32, on) > barrier_time(NET.os_bypass, 32)


def test_calibrate_rejects_inconsistent_anchors():
    bad = Anchors(
        os_bypass=PathAnchors(7.46e-6, 1.712e6, 24.202e9),
        tap_relay=PathAnchors(1.0e-6, 1.3e6, 24.125e9),  # faster than bypass
        barrier_gap_4node_s=31.89e-6,
        barrier_excess_fraction=0.7868,
        allreduce_mu=((4, 3.6, 13.7), (32, 2.89, 4.32)),
    )
    with pytest.raises(CalibrationError):
        calibrate(bad)
    with pytest.raises(CalibrationError):
        solve_barrier_base(-1.0, 0.5)


def test_ethernet_preset_halves_asymptotic_bandwidth():
    eth = pre_efa_ethernet(NET.tap_relay)
    assert eth.bw_inf_Bps == NET.tap_relay.bw_inf_Bps / 2
    assert p2p_bandwidth(eth, MIB_4) < p2p_bandwidth(NET.tap_relay, MIB_4) / 1.9


def test_default_network_matches_explicit_calibration():
    assert default_network() == NET
