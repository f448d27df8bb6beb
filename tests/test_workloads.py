import numpy as np
import pytest

from convergesim import netmodel
from convergesim.workloads import (
    BARE_METAL,
    BARE_METAL_CONTAINER,
    BARE_METAL_WITH_USERNETES,
    CONTAINER_WITH_USERNETES,
    ENVIRONMENTS,
    USERNETES,
    LammpsProblem,
    UnknownEnvironmentError,
    UnknownTableRowError,
    cpu_utilization,
    lammps_walltime,
    osu_replay,
    reference_table,
    table_row,
    table_walltime,
    volumetric_fit,
)


def test_reference_table_shape():
    table = reference_table()
    assert len(table) == 20  # 5 environments x 4 sizes
    assert {r.environment for r in table} == set(ENVIRONMENTS)
    assert all(r.mean_s > 0 for r in table)


def test_reference_rows_match_measurements():
    row = table_row(BARE_METAL, 4)
    assert (row.mean_s, row.stddev_s, row.cpu_pct) == (82.0, 0.0, 99.8)
    row = table_row(USERNETES, 32)
    assert (row.mean_s, row.stddev_s) == (17.4, 5.798)
    gap = row.mean_s - table_row(BARE_METAL, 32).mean_s
    assert gap == pytest.approx(3.35, abs=1e-9)


def test_cpu_utilization_column():
    assert cpu_utilization(BARE_METAL, 4) == 99.8
    assert cpu_utilization(USERNETES, 8) == 99.7
    assert all(r.cpu_pct >= 99.3 for r in reference_table())
    with pytest.raises(UnknownTableRowError):
        cpu_utilization(BARE_METAL, 64)


def test_strong_scaling_in_the_table():
    ratio = table_row(BARE_METAL, 4).mean_s / table_row(BARE_METAL, 32).mean_s
    assert ratio == pytest.approx(5.84, abs=0.01)
    for env in ENVIRONMENTS:
        means = [table_row(env, n).mean_s for n in (4, 8, 16, 32)]
        assert means == sorted(means, reverse=True)
        assert len(set(means)) == 4  # strictly decreasing


def test_background_cluster_pair_stays_within_two_percent():
    # the two environments that differ only by the container runtime agree
    # closely at every size when the background cluster is up
    for nodes in (4, 8, 16, 32):
        a = table_row(BARE_METAL_WITH_USERNETES, nodes).mean_s
        b = table_row(CONTAINER_WITH_USERNETES, nodes).mean_s
        assert abs(a - b) / a < 0.02


def test_volumetric_fit_against_independent_solve():
    # fit T(p) = t_s + t_p/p through the 64- and 512-rank points by solving
    # the 2x2 linear system directly
    A = np.array([[1.0, 1.0 / 64.0], [1.0, 1.0 / 512.0]])
    b = np.array([82.0, 14.05])
    t_s_expected, t_p_expected = np.linalg.solve(A, b)
    k_expected = (82.0 - t_s_expected) / (16 * 16 * 8)
    t_s, k = volumetric_fit()
    assert t_s == pytest.approx(t_s_expected, rel=1e-12)
    assert k == pytest.approx(k_expected, rel=1e-12)
    assert t_s == pytest.approx(4.34, abs=0.01)
    assert k == pytest.approx(0.03792, abs=1e-5)


def test_model_mode_prices_problem_volume():
    rng = np.random.default_rng(0)
    t_s, k = volumetric_fit()
    t = lammps_walltime(64, LammpsProblem(8, 8, 8), rng, 0.0)
    assert t == pytest.approx(t_s + k * 512, rel=1e-12)
    assert t == pytest.approx(23.8, abs=0.1)
    # rank scaling: doubling ranks halves the parallel term
    t2 = lammps_walltime(128, LammpsProblem(8, 8, 8), rng, 0.0)
    assert t2 == pytest.approx(t_s + k * 512 * 64 / 128, rel=1e-12)


def test_model_mode_noise_is_multiplicative_lognormal():
    rng = np.random.default_rng(7)
    values = [
        lammps_walltime(64, LammpsProblem(4, 4, 4), rng, 0.05)
        for _ in range(500)
    ]
    t_s, k = volumetric_fit()
    base = t_s + k * 64
    assert all(v > 0 for v in values)
    assert np.mean(values) == pytest.approx(base, rel=0.02)
    assert np.std(np.log(np.array(values) / base)) == pytest.approx(0.05, rel=0.15)


def test_table_mode_draws_replay_the_row():
    rng = np.random.default_rng(3)
    # zero-spread rows reproduce the mean exactly
    assert table_walltime(BARE_METAL, 4, rng) == 82.0
    # spread rows draw around the row mean, truncated at half the mean
    draws = [table_walltime(BARE_METAL, 16, rng) for _ in range(4000)]
    row = table_row(BARE_METAL, 16)
    assert min(draws) >= 0.5 * row.mean_s
    assert np.mean(draws) == pytest.approx(row.mean_s, abs=0.6)
    assert all(d > 0 for d in draws)


def test_unknown_environment_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(UnknownEnvironmentError):
        table_walltime("laptop", 4, rng)
    with pytest.raises(UnknownTableRowError):
        table_walltime(BARE_METAL, 64, rng)
    with pytest.raises(UnknownEnvironmentError):
        osu_replay("laptop", "latency", 4, 1, NET)


def test_problem_requires_positive_dimensions():
    with pytest.raises(ValueError):
        LammpsProblem(0, 2, 2)


NET = netmodel.default_network()


def test_osu_replay_routes_by_environment():
    # inside the user-space cluster the relay path applies
    assert osu_replay(USERNETES, "latency", 4, 1, NET) == pytest.approx(
        12.31e-6, rel=5e-3
    )
    # host environments are equivalent, container or not
    assert osu_replay(BARE_METAL, "latency", 4, 1, NET) == osu_replay(
        BARE_METAL_CONTAINER, "latency", 4, 1, NET
    )
    assert osu_replay(BARE_METAL, "bw", 4, 1024, NET) == osu_replay(
        BARE_METAL_CONTAINER, "bw", 4, 1024, NET
    )


def test_background_cluster_penalizes_collectives_at_scale():
    plain = osu_replay(BARE_METAL, "barrier", 32, 0, NET)
    with_bg = osu_replay(BARE_METAL_WITH_USERNETES, "barrier", 32, 0, NET)
    assert with_bg > plain
    # but not point-to-point
    assert osu_replay(BARE_METAL_WITH_USERNETES, "latency", 32, 1, NET) == osu_replay(
        BARE_METAL, "latency", 32, 1, NET
    )
    # and not at small scale by default
    assert osu_replay(BARE_METAL_WITH_USERNETES, "barrier", 4, 0, NET) == osu_replay(
        BARE_METAL, "barrier", 4, 0, NET
    )


def test_osu_replay_rejects_unknown_benchmark():
    with pytest.raises(ValueError):
        osu_replay(BARE_METAL, "gather", 4, 1, NET)
