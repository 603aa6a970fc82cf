"""Validation tests for every configuration dataclass."""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re

import pytest

import repro

from repro.common.config import (
    CheckpointConfig,
    ClusterConfig,
    CostModel,
    NetworkConfig,
    PowerConfig,
    SchedulingConfig,
    SDVMConfig,
    SecurityConfig,
    SiteConfig,
)
from repro.common.errors import ConfigError


class TestCostModel:
    def test_work_seconds(self):
        cost = CostModel(work_unit_time=1e-6)
        assert cost.work_seconds(1_000_000, 1.0) == pytest.approx(1.0)
        assert cost.work_seconds(1_000_000, 2.0) == pytest.approx(0.5)

    def test_zero_speed_rejected(self):
        with pytest.raises(ConfigError):
            CostModel().work_seconds(1.0, 0.0)


class TestNetworkConfig:
    def test_defaults_valid(self):
        NetworkConfig()

    @pytest.mark.parametrize("kwargs", [
        {"latency": -1.0},
        {"bandwidth": 0.0},
        {"udp_loss_rate": 1.0},
        {"udp_loss_rate": -0.1},
        {"transport": "carrier-pigeon"},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            NetworkConfig(**kwargs)


class TestSchedulingConfig:
    @pytest.mark.parametrize("kwargs", [
        {"steal_batch_max": 0},
        {"ready_target": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SchedulingConfig(**kwargs)


class TestClusterConfig:
    def test_timeout_must_exceed_interval(self):
        with pytest.raises(ConfigError):
            ClusterConfig(heartbeat_interval=1.0, heartbeat_timeout=0.5)

    def test_contingent_size(self):
        with pytest.raises(ConfigError):
            ClusterConfig(contingent_size=0)


class TestSiteConfig:
    def test_service_only_site_allowed(self):
        assert SiteConfig(max_parallel=0).max_parallel == 0

    @pytest.mark.parametrize("kwargs", [
        {"speed": 0.0},
        {"speed": -1.0},
        {"max_parallel": -1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SiteConfig(**kwargs)


class TestPowerConfig:
    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            PowerConfig(sleep_after=-1.0)
        with pytest.raises(ConfigError):
            PowerConfig(idle_watts=-5.0)


class TestSDVMConfig:
    def test_with_replaces_top_level(self):
        config = SDVMConfig()
        replaced = config.with_(seed=42)
        assert replaced.seed == 42
        assert config.seed == 0  # original untouched
        assert replaced.cost is config.cost

    def test_nested_configs_frozen(self):
        config = SDVMConfig()
        with pytest.raises(AttributeError):
            config.network.latency = 1.0  # type: ignore[misc]


class TestSecurityAndCheckpoint:
    def test_defaults(self):
        assert not SecurityConfig().enabled
        assert not CheckpointConfig().enabled

    @pytest.mark.parametrize("kwargs", [
        {"interval": 0.0},  # the wave timer would re-arm at zero delay
        {"replicas": -1},
    ])
    def test_invalid_checkpoint_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CheckpointConfig(**kwargs)


def leaf_fields(config):
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from leaf_fields(value)
        else:
            yield f"{type(config).__name__}.{f.name}", f.name


def test_every_config_field_has_a_reader():
    """A knob nothing reads advertises behaviour the system does not
    have: every leaf field of SDVMConfig must appear as ``.<name>``
    somewhere under src/repro/ outside the file that declares it, or in
    one of that file's own methods — a validator is not a reader."""
    root = pathlib.Path(repro.__file__).parent
    declaring = root / "common" / "config.py"
    source = "\n".join(path.read_text()
                       for path in sorted(root.rglob("*.py"))
                       if path != declaring)
    own_reads = {node.attr
                 for fn in ast.walk(ast.parse(declaring.read_text()))
                 if isinstance(fn, ast.FunctionDef)
                 and fn.name != "__post_init__"
                 for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
    unread = [qualified for qualified, name in leaf_fields(SDVMConfig())
              if name not in own_reads
              and not re.search(rf"\.{name}\b", source)]
    assert unread == []


def test_one_memory_and_file_protocol():
    """The sim runs the message protocol it measures.  No cluster-wide
    object, file or site oracle, and no sim twin of a call or kernel-mode
    branch in the memory and I/O managers: a microthread that waits
    restarts on the reply (proc/context.py), an SDC shadow is asked for
    by REPLICATE and answers by VERDICT (proc/manager.py), and only the
    chaos engine's ``sdc_arm`` reaches into a processing manager's
    corruption hook.  The hash ring is gone for good, and so is the live
    kernel's second context and manager: one of each serves both
    kernels, which differ only in where user code runs."""
    root = pathlib.Path(repro.__file__).parent
    offences = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        patterns = [r"shared\.objects", r"shared\.vfs", r"SharedSimState",
                    r"kernel\.shared", r"\.shared\.sites",
                    r"memory\.directory", r"processing_manager\._sdc",
                    r"LiveExecutionContext", r"OP_TIMEOUT", r"def _await\b",
                    r"live_proc", r"SimProcessingManager"]
        if path.relative_to(root).as_posix() != "chaos/engine.py":
            patterns.append(r"processing_manager\.sdc")
        if path.parent.name in ("memory", "io"):
            patterns += [r"def sim_", r"kernel\.mode"]
        if (path.parent.name == "proc"
                or path.relative_to(root).as_posix() == "site/daemon.py"):
            patterns.append(r"kernel\.mode")
        offences += [f"{path.relative_to(root)}: {pattern}"
                     for pattern in patterns if re.search(pattern, text)]
    assert offences == []


def test_one_trace_sink():
    """The Tracer is the only trace sink: a flight dump is a view of its
    journal, so no second sink, no tee, and no probe for which sink a
    kernel holds; the telemetry knobs are one ``metrics_interval`` and
    constants next to the health detectors."""
    root = pathlib.Path(repro.__file__).parent
    patterns = [r"FlightRecorder", r"TelemetryConfig", r"_kernel_tracer",
                r"hasattr\(recorder"]
    offences = [f"{path.relative_to(root)}: {pattern}"
                for path in sorted(root.rglob("*.py"))
                for pattern in patterns
                if re.search(pattern, path.read_text())]
    assert offences == []
    assert not (root / "trace" / "flight.py").exists()
