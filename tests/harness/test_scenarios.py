"""Unit tests for scenario definitions."""

import pytest

from repro.harness import (
    EMULAB_DEFAULT,
    EMULAB_SHALLOW,
    FIG2_LINK,
    LinkConfig,
    config_matrix,
    wifi_sites,
)


def test_emulab_default_matches_paper():
    assert EMULAB_DEFAULT.bandwidth_mbps == 50.0
    assert EMULAB_DEFAULT.rtt_ms == 30.0
    # 375 KB = 2 BDP at 50 Mbps x 30 ms.
    assert EMULAB_DEFAULT.buffer_bdp == pytest.approx(2.0)
    assert EMULAB_SHALLOW.buffer_bdp == pytest.approx(0.4)


def test_fig2_link_matches_paper():
    assert FIG2_LINK.bandwidth_mbps == 100.0
    assert FIG2_LINK.rtt_ms == 60.0
    assert FIG2_LINK.buffer_bdp == pytest.approx(2.0)


def test_unit_conversions():
    config = LinkConfig(bandwidth_mbps=100.0, rtt_ms=20.0, buffer_kb=250.0)
    assert config.bandwidth_bps == 100e6
    assert config.rtt_s == 0.020
    assert config.buffer_bytes == 250e3
    assert config.bdp_bytes == pytest.approx(100e6 * 0.020 / 8)


def test_with_buffer_bdp_round_trip():
    config = EMULAB_DEFAULT.with_buffer_bdp(5.0)
    assert config.buffer_bdp == pytest.approx(5.0)
    assert config.bandwidth_mbps == EMULAB_DEFAULT.bandwidth_mbps


def test_with_loss_preserves_other_fields():
    config = EMULAB_DEFAULT.with_loss(0.02)
    assert config.loss_rate == 0.02
    assert config.buffer_kb == EMULAB_DEFAULT.buffer_kb


def test_validation():
    with pytest.raises(ValueError):
        LinkConfig(bandwidth_mbps=0.0, rtt_ms=30.0, buffer_kb=100.0)
    with pytest.raises(ValueError):
        LinkConfig(bandwidth_mbps=10.0, rtt_ms=-1.0, buffer_kb=100.0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("loss_rate", -0.1, "loss_rate"),
        ("loss_rate", 1.0, "loss_rate"),
        ("loss_rate", 1.5, "loss_rate"),
        ("noise_severity", -1.0, "noise"),
        ("reverse_noise_severity", -0.5, "noise"),
    ],
)
def test_validation_rejects_impossible_loss_and_noise(field, value, message):
    with pytest.raises(ValueError, match=message):
        LinkConfig(bandwidth_mbps=10.0, rtt_ms=30.0, buffer_kb=100.0, **{field: value})
    # The edges of the valid ranges still build.
    LinkConfig(bandwidth_mbps=10.0, rtt_ms=30.0, buffer_kb=100.0, loss_rate=0.999)
    LinkConfig(bandwidth_mbps=10.0, rtt_ms=30.0, buffer_kb=100.0, noise_severity=0.0)


def test_config_matrix_full_size_is_180():
    assert len(config_matrix()) == 180


def test_config_matrix_buffers_scale_with_bdp():
    configs = config_matrix((50.0,), (30.0,), (0.2, 2.0))
    assert configs[0].buffer_bdp == pytest.approx(0.2)
    assert configs[1].buffer_bdp == pytest.approx(2.0)


def test_wifi_sites_shape():
    configs = wifi_sites()
    assert len(configs) == 16  # 4 sites x 4 paths
    assert all(c.noise_severity > 0 for c in configs)
    assert all(c.reverse_noise_severity > 0 for c in configs)
    assert all(c.make_noise() is not None for c in configs)
    # Clean configs have no noise model.
    assert EMULAB_DEFAULT.make_noise() is None
