"""Flat config parsing and the layered override machinery."""

import math
import re
import sys
import typing
from dataclasses import fields
from pathlib import Path

import pytest

from dcascan.analysis import AnalysisConfig
from dcascan.config import (
    PipelineConfig,
    apply_overrides,
    build_config,
    parse_flat_config,
)
from dcascan.engine import MAX_SIZE, EngineConfig, WeightMatrix
from dcascan.errors import ConfigError
from dcascan.scenario import NormalProfile, ScanProfile, SessionProfile
from dcascan.signals import SignalConfig


def test_parse_basic_lines():
    text = """
    # engine sizing
    engine.population_size = 100

    analysis.window_size= 5000
    scan.scanner_label =zmap
    """
    assert parse_flat_config(text) == {
        "engine.population_size": "100",
        "analysis.window_size": "5000",
        "scan.scanner_label": "zmap",
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


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_config_lines_end_where_a_text_file_does(tmp_path, sep):
    # str.splitlines also ends a line at these, which used to load two keys from one line
    text = f"engine.population_size = 5{sep}engine.tissue_capacity = 9"
    assert parse_flat_config(text) == {"engine.population_size": f"5{sep}engine.tissue_capacity = 9"}
    conf = tmp_path / "c.conf"
    conf.write_bytes(text.encode("utf-8"))
    with pytest.raises(ConfigError, match=r"^engine\.population_size: expected an integer, got '5"):
        build_config(conf)
    # \r and \r\n end a line, as in a text file
    assert parse_flat_config("a.b = 1\rc.d = 2\r\ne.f = 3") == {"a.b": "1", "c.d": "2", "e.f": "3"}


def test_overrides_reach_every_section():
    config = apply_overrides(PipelineConfig(), {
        "engine.population_size": "64",
        "weights.semi_safe": "4",
        "signals.icmp_multiplier": "2.5",
        "scan.target_count": "64",
        "scan.hosts_up": "16",
        "normal.mean_pps": "22",
        "session.login_time": "1.5",
        "analysis.mcav_threshold": "0.4",
    })
    assert config.engine.population_size == 64
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
               "cell_store_capacity": 40, "threshold_min": 90.0, "threshold_max": 250.0},
    "weights": {"csm_pamp": 2.5, "csm_danger": 1.5, "csm_safe": 1.0, "semi_pamp": 0.5,
                "semi_danger": 0.25, "semi_safe": 2.0, "mature_pamp": 3.0,
                "mature_danger": 1.25, "mature_safe": -2.0, "inflammation_base": 1.5},
    "signals": {"icmp_multiplier": 4.0, "ds1_midpoint": 350.0, "ds1_scale": 60.0,
                "ds1_input_cap": 900.0, "ss1_delta_max": 400.0, "ss2_window_seconds": 30,
                "ss2_default": 90.0, "ss2_step_bounds": (40.0, 55.0, 70.0),
                "ss2_step_values": (5.0, 20.0, 60.0), "ss2_top": 95.0},
    "scan": {"target_count": 100, "hosts_up": 30, "probe_interval": 0.1,
             "open_port_fraction": 0.1, "icmp_reply_rate": 0.2, "salvo_rate": 300.0,
             "syscalls_per_probe": 3, "syscalls_per_reply": 20, "relay_syscalls_per_reply": 4,
             "relay_packets_per_salvo": 10, "relay_packet_size": 120},
    "normal": {"mean_pps": 12.0, "mean_packet_size": 80.0, "syscall_rate": 0.5,
               "activity_period": 50.0, "activity_pps": 30.0,
               "activity_length": (2.0, 5.0), "download_period": 500.0,
               "download_pps": 150.0, "download_size": 300.0,
               "download_length": (4.0, 10.0), "stall_flush_syscalls": 50.0,
               "tcp_fraction": 0.7, "udp_fraction": 0.2, "sent_fraction": 0.5},
    "session": {"sshd_syscall_rate": 0.3, "login_time": 4.0},
    "analysis": {"window_size": 5000, "mcav_threshold": 0.6, "min_confidence": 500},
}


def _section(config, section):
    return config.engine.weights if section == "weights" else getattr(config, section)


def _flat_text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value)


SECTION_CLASSES = {
    "engine": EngineConfig, "weights": WeightMatrix, "signals": SignalConfig,
    "scan": ScanProfile, "normal": NormalProfile, "session": SessionProfile,
    "analysis": AnalysisConfig,
}


def test_every_field_of_every_section_round_trips():
    for section, cls in SECTION_CLASSES.items():
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
        "normal.activity_length": "2, 6",
        "signals.ss2_step_bounds": "40, 55, 70",
    })
    assert config.normal.activity_length == (2.0, 6.0)
    assert config.signals.ss2_step_bounds == (40.0, 55.0, 70.0)


@pytest.mark.parametrize(
    "flat,fragment",
    [
        ({"nosuch.key": "1"}, "unknown config section"),
        ({"engine.nosuch": "1"}, "unknown config key"),
        ({"flat": "1"}, "section.key"),
        ({"engine.population_size": "tiny"}, "expected an integer"),
        ({"normal.mean_pps": "fast"}, "expected a number"),
        # deleted with the one rule that read booleans; it keeps the old case's place
        ({"analysis.include_partial": "yes"}, "unknown config key analysis.include_partial"),
        ({"normal.activity_length": "1, 2, 3"}, "comma-separated"),
        # keys deleted because they had no effect or only one value in use
        ({"scan.start_time": "5"}, "unknown config key scan.start_time"),
        ({"signals.ss2_weighting": "packets"}, "unknown config key signals.ss2_weighting"),
        ({"engine.seed": "5"}, "unknown config key engine.seed"),
        # a section of its own, not a flat key: these used to raise an IndexError or be ignored
        ({"engine.weights": "1"}, "unknown config key engine.weights"),
        ({"engine.weights": "none"}, "unknown config key engine.weights"),
    ],
)
def test_override_rejects_bad_input(flat, fragment):
    with pytest.raises(ConfigError, match=fragment):
        apply_overrides(PipelineConfig(), flat)


def _float_settings():
    """(key, text with one {} for the bad number) for every float-carrying key;
    a tuple key keeps its default values but the last."""
    for section, cls in SECTION_CLASSES.items():
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            hint = hints[f.name]
            if hint is float:
                yield f"{section}.{f.name}", "{}"
            elif typing.get_origin(hint) is tuple and float in typing.get_args(hint):
                head = [str(v) for v in getattr(cls(), f.name)[:-1]]
                yield f"{section}.{f.name}", ", ".join([*head, "{}"])


FLOAT_SETTINGS = list(_float_settings())


def test_float_settings_cover_every_section():
    assert {key.partition(".")[0] for key, _ in FLOAT_SETTINGS} == set(SECTION_CLASSES)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, template", FLOAT_SETTINGS)
def test_every_float_key_rejects_non_finite_values(key, template, bad):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be finite, got '{bad}'$"):
        apply_overrides(PipelineConfig(), {key: template.format(bad)})


@pytest.mark.parametrize("name", ["population_size", "tissue_capacity", "cell_store_capacity"])
def test_engine_sizes_are_bounded_at_load(name):
    # Loading only: no engine is built, so nothing of that size is allocated.
    loaded = apply_overrides(PipelineConfig(), {f"engine.{name}": str(MAX_SIZE)})
    assert getattr(loaded.engine, name) == MAX_SIZE
    with pytest.raises(ConfigError, match=f"{name} must lie in"):
        apply_overrides(PipelineConfig(), {f"engine.{name}": str(MAX_SIZE + 1)})


def test_readme_configuration_block_loads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    block = section.split("```\n", 2)[1]
    flat = parse_flat_config(block)
    assert len(flat) >= 5
    apply_overrides(PipelineConfig(), flat)


def test_readme_configuration_names_only_live_or_gone_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    key = r"`([a-z][a-z0-9_]*\.[a-z][a-z0-9_]*)`"
    named = {k for k in re.findall(key, section) if k.partition(".")[0] in SECTION_CLASSES}
    gone_text = next(p for p in section.split("\n\n") if " are gone " in p).split(" are gone ", 1)[1]
    gone = set(re.findall(key, gone_text))
    assert gone and gone <= named
    for name in sorted(gone):
        with pytest.raises(ConfigError, match=f"^unknown config key {re.escape(name)}$"):
            apply_overrides(PipelineConfig(), {name: "1"})
    for name in sorted(named - gone):
        section_name, _, field_name = name.partition(".")
        default = getattr(_section(PipelineConfig(), section_name), field_name, None)
        apply_overrides(PipelineConfig(), {name: _flat_text(default)})


def test_override_runs_section_validation():
    with pytest.raises(ConfigError, match="threshold"):
        apply_overrides(PipelineConfig(), {"engine.threshold_min": "500"})
    with pytest.raises(ConfigError):
        apply_overrides(PipelineConfig(), {"weights.mature_safe": "1"})


def test_build_config_layers_file_then_overrides(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "engine.population_size = 50\n"
        "analysis.window_size = 2000\n"
    )
    config = apply_overrides(build_config(path), {"engine.population_size": "64"})
    assert config.engine.population_size == 64   # explicit override wins
    assert config.analysis.window_size == 2000  # file survives elsewhere
    assert build_config().engine.population_size == 100  # plain defaults


def test_build_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        build_config(tmp_path / "absent.conf")


# Float fields with no rule of their own: any finite value loads.
UNRANGED = {"weights.semi_pamp", "weights.semi_danger", "weights.semi_safe",
            "weights.mature_pamp", "weights.mature_danger", "signals.ds1_midpoint",
            "normal.activity_period", "normal.activity_length", "normal.download_period",
            "normal.download_length"}


@pytest.mark.parametrize("key", [key for key, _ in FLOAT_SETTINGS if key not in UNRANGED])
def test_ranged_float_fields_reject_nan_in_a_direct_build(key):
    assert UNRANGED <= {key for key, _ in FLOAT_SETTINGS}
    section, _, name = key.partition(".")
    cls = SECTION_CLASSES[section]
    default = getattr(cls(), name)
    nan = (*default[:-1], math.nan) if isinstance(default, tuple) else math.nan
    with pytest.raises(ConfigError):
        cls(**{name: nan})


@pytest.mark.parametrize(
    "key, lo, hi, outside, bounds",
    [
        ("engine.population_size", "1", "1000000", ("0", "1000001"), "[1, 1,000,000]"),
        ("scan.open_port_fraction", "0", "1", ("-0.01", "1.01"), "[0, 1]"),
        ("scan.syscalls_per_reply", "0", "1000", ("-1", "1001"), "[0, 1,000]"),
        ("scan.relay_packet_size", "20", "65535", ("19", "65536"), "[20, 65,535]"),
        ("normal.mean_pps", "0", "10000", ("-0.5", "10000.5"), "[0, 10000]"),
        ("normal.sent_fraction", "0", "1", ("-0.01", "1.01"), "[0, 1]"),
        ("session.login_time", "0", "86400", ("-0.5", "86400.5"), "[0, 86400]"),
        ("signals.ss2_top", "0", "100", ("-0.5", "100.5"), "[0, 100]"),
        ("analysis.mcav_threshold", "0", "1", ("-0.01", "1.01"), "[0, 1]"),
        ("analysis.min_confidence", "0", None, ("-1",), "[0, inf]"),
        # bounds taken from another field of the section
        ("scan.hosts_up", "1", "254", ("0", "255"), "[1, 254]"),
        ("engine.antigens_per_update", "1", "500", ("0", "501"), "[1, 500]"),
        ("engine.threshold_max", "100", None, ("99.5",), "[100, inf]"),
        # the longest window islice and deque take; 0 and below fail as not positive
        ("analysis.window_size", "1", str(sys.maxsize), (str(sys.maxsize + 1), str(10**20)),
         "[1, 9,223,372,036,854,775,807]"),
        ("signals.ss2_window_seconds", "1", str(sys.maxsize), (str(sys.maxsize + 1),),
         "[1, 9,223,372,036,854,775,807]"),
    ],
)
def test_override_ranges_hold_at_both_edges(key, lo, hi, outside, bounds):
    section, _, name = key.partition(".")
    for edge in (lo, hi):
        if edge is not None:
            config = apply_overrides(PipelineConfig(), {key: edge})
            value = getattr(_section(config, section), name)
            assert value == type(value)(edge)  # an int field compared as a float is inexact
    for value in outside:
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{name} must lie in {bounds}, got ')}"):
            apply_overrides(PipelineConfig(), {key: value})
