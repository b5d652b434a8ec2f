"""Flat config parsing and the layered override machinery."""

from dataclasses import fields

import pytest

from dcascan.analysis import AnalysisConfig
from dcascan.config import (
    PipelineConfig,
    apply_overrides,
    build_config,
    parse_flat_config,
)
from dcascan.engine import EngineConfig, WeightMatrix
from dcascan.errors import ConfigError
from dcascan.scenario import NormalProfile, ScanProfile, SessionProfile
from dcascan.signals import SignalConfig


def test_parse_basic_lines():
    text = """
    # engine sizing
    engine.population_size = 100

    analysis.window_size= 5000
    signals.ss2_weighting =seconds
    """
    assert parse_flat_config(text) == {
        "engine.population_size": "100",
        "analysis.window_size": "5000",
        "signals.ss2_weighting": "seconds",
    }


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("just words", "expected key = value"),
        ("= 5", "empty key"),
        ("a.b =", "empty key or value"),
        ("x.y = 1\nx.y = 2", "duplicate"),
    ],
)
def test_parse_rejects_malformed_lines(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_flat_config(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_flat_config("a.b = 1\n# fine\nbroken line\n")


def test_overrides_reach_every_section():
    config = apply_overrides(PipelineConfig(), {
        "engine.population_size": "64",
        "engine.seed": "9",
        "weights.semi_safe": "4",
        "signals.icmp_multiplier": "2.5",
        "scan.target_count": "64",
        "scan.hosts_up": "16",
        "normal.mean_pps": "22",
        "session.login_time": "1.5",
        "analysis.mcav_threshold": "0.4",
    })
    assert config.engine.population_size == 64
    assert config.engine.seed == 9
    assert config.engine.weights.semi_safe == 4.0
    assert config.engine.weights.csm_pamp == 2.0  # untouched default
    assert config.signals.icmp_multiplier == 2.5
    assert config.scan.target_count == 64
    assert config.normal.mean_pps == 22.0
    assert config.session.login_time == 1.5
    assert config.analysis.mcav_threshold == 0.4


# A value other than the default for every field of every section.
EVERY_KEY = {
    "engine": {"population_size": 64, "tissue_capacity": 400, "antigens_per_update": 8,
               "cell_store_capacity": 40, "threshold_min": 90.0, "threshold_max": 250.0,
               "seed": 9},
    "weights": {"csm_pamp": 2.5, "csm_danger": 1.5, "csm_safe": 1.0, "semi_pamp": 0.5,
                "semi_danger": 0.25, "semi_safe": 2.0, "mature_pamp": 3.0,
                "mature_danger": 1.25, "mature_safe": -2.0, "inflammation_base": 1.5},
    "signals": {"icmp_multiplier": 4.0, "ds1_midpoint": 350.0, "ds1_scale": 60.0,
                "ds1_input_cap": 900.0, "ss1_delta_max": 400.0, "ss2_window_seconds": 30,
                "ss2_default": 90.0, "ss2_step_bounds": (40.0, 55.0, 70.0),
                "ss2_step_values": (5.0, 20.0, 60.0), "ss2_top": 95.0,
                "ss2_weighting": "seconds"},
    "scan": {"start_time": 5.0, "target_count": 100, "hosts_up": 30, "ports_per_host": 7,
             "probe_interval": 0.1, "scanner_pid": 4000, "scanner_label": "zmap",
             "parent_pid": 3999, "parent_label": "tty", "open_port_fraction": 0.1,
             "icmp_reply_rate": 0.2, "salvo_rate": 300.0, "syscalls_per_probe": 3,
             "syscalls_per_reply": 20, "relay_syscalls_per_reply": 4,
             "relay_packets_per_salvo": 10, "relay_packet_size": 120},
    "normal": {"mean_pps": 12.0, "mean_packet_size": 80.0, "browser_pid": 2000,
               "browser_label": "chrome", "child_pids": (2001, 2002, 2003),
               "syscall_rate": 0.5, "activity_period": 50.0, "activity_pps": 30.0,
               "activity_length": (2.0, 5.0), "download_period": 500.0,
               "download_pps": 150.0, "download_size": 300.0,
               "download_length": (4.0, 10.0), "stall_flush_syscalls": 50.0,
               "tcp_fraction": 0.7, "udp_fraction": 0.2, "sent_fraction": 0.5},
    "session": {"sshd_pid": 3000, "sshd_label": "dropbear", "sshd_syscall_rate": 0.3,
                "login_time": 4.0},
    "analysis": {"window_size": 5000, "mcav_threshold": 0.6, "min_confidence": 500,
                 "include_partial": True},
}


def _section(config, section):
    return config.engine.weights if section == "weights" else getattr(config, section)


def _flat_text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value)


def test_every_field_of_every_section_round_trips():
    section_classes = {
        "engine": EngineConfig, "weights": WeightMatrix, "signals": SignalConfig,
        "scan": ScanProfile, "normal": NormalProfile, "session": SessionProfile,
        "analysis": AnalysisConfig,
    }
    for section, cls in section_classes.items():
        # engine.weights is a section of its own, not a flat key.
        names = {f.name for f in fields(cls)} - ({"weights"} if cls is EngineConfig else set())
        assert set(EVERY_KEY[section]) == names, section
    flat = {f"{section}.{name}": _flat_text(value)
            for section, values in EVERY_KEY.items() for name, value in values.items()}
    config = apply_overrides(PipelineConfig(), flat)
    for section, values in EVERY_KEY.items():
        for name, value in values.items():
            assert getattr(_section(config, section), name) == value, f"{section}.{name}"
            assert getattr(_section(PipelineConfig(), section), name) != value, f"{section}.{name}"


def test_override_typed_values():
    config = apply_overrides(PipelineConfig(), {
        "analysis.include_partial": "yes",
        "scan.ports_per_host": "none",
        "normal.child_pids": "10, 11, 12",
        "normal.activity_length": "2, 6",
        "signals.ss2_step_bounds": "40, 55, 70",
    })
    assert config.analysis.include_partial is True
    assert config.scan.ports_per_host is None
    assert config.normal.child_pids == (10, 11, 12)
    assert config.normal.activity_length == (2.0, 6.0)
    assert config.signals.ss2_step_bounds == (40.0, 55.0, 70.0)
    with_port = apply_overrides(PipelineConfig(), {"scan.ports_per_host": "77"})
    assert with_port.scan.ports_per_host == 77


@pytest.mark.parametrize(
    "flat,fragment",
    [
        ({"nosuch.key": "1"}, "unknown config section"),
        ({"engine.nosuch": "1"}, "unknown config key"),
        ({"flat": "1"}, "section.key"),
        ({"engine.population_size": "tiny"}, "expected an integer"),
        ({"normal.mean_pps": "fast"}, "expected a number"),
        ({"analysis.include_partial": "perhaps"}, "expected a boolean"),
        ({"normal.activity_length": "1, 2, 3"}, "comma-separated"),
    ],
)
def test_override_rejects_bad_input(flat, fragment):
    with pytest.raises(ConfigError, match=fragment):
        apply_overrides(PipelineConfig(), flat)


def test_override_runs_section_validation():
    with pytest.raises(ConfigError, match="threshold"):
        apply_overrides(PipelineConfig(), {"engine.threshold_min": "500"})
    with pytest.raises(ConfigError):
        apply_overrides(PipelineConfig(), {"weights.mature_safe": "1"})


def test_build_config_layers_file_then_overrides(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "engine.seed = 5\n"
        "analysis.window_size = 2000\n"
    )
    config = apply_overrides(build_config(path), {"engine.seed": "9"})
    assert config.engine.seed == 9          # explicit override wins
    assert config.analysis.window_size == 2000  # file survives elsewhere
    assert build_config().engine.seed == 0  # plain defaults


def test_build_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        build_config(tmp_path / "absent.conf")
