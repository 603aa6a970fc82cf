"""Common building blocks shared by every SDVM subsystem.

This package defines the identifier types the paper's managers exchange
(logical site ids, global memory addresses, program ids, manager ids), the
exception hierarchy, configuration dataclasses, and small utilities
(deterministic RNG helpers, a token-bucket style statistics counter).
"""

from repro.common.ids import (
    SiteId,
    ProgramId,
    GlobalAddress,
    FrameId,
    ThreadId,
    FileHandle,
    ManagerId,
    PlatformId,
    NO_SITE,
)
from repro.common.errors import (
    SDVMError,
    SerializationError,
    AddressError,
    CodeError,
    SchedulingError,
    ClusterError,
    MemoryFault,
    SecurityError,
    ProgramError,
    ConfigError,
)
from repro.common.config import (
    SiteConfig,
    NetworkConfig,
    CostModel,
    SecurityConfig,
    CheckpointConfig,
    SchedulingConfig,
    ClusterConfig,
    SDVMConfig,
)
from repro.common.stats import Counter, StatSet

__all__ = [
    "SiteId",
    "ProgramId",
    "GlobalAddress",
    "FrameId",
    "ThreadId",
    "FileHandle",
    "ManagerId",
    "PlatformId",
    "NO_SITE",
    "SDVMError",
    "SerializationError",
    "AddressError",
    "CodeError",
    "SchedulingError",
    "ClusterError",
    "MemoryFault",
    "SecurityError",
    "ProgramError",
    "ConfigError",
    "SiteConfig",
    "NetworkConfig",
    "CostModel",
    "SecurityConfig",
    "CheckpointConfig",
    "SchedulingConfig",
    "ClusterConfig",
    "SDVMConfig",
    "Counter",
    "StatSet",
]
