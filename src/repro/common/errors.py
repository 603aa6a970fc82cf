"""Exception hierarchy for the SDVM reproduction."""

from __future__ import annotations


class SDVMError(Exception):
    """Base class for all SDVM errors."""


class ConfigError(SDVMError):
    """Invalid configuration value or combination."""


class SerializationError(SDVMError):
    """Malformed wire data or unserializable value."""


class AddressError(SDVMError):
    """Unknown or invalid global address / site id."""


class CodeError(SDVMError):
    """Microthread code unavailable, uncompilable, or platform mismatch."""


class SchedulingError(SDVMError):
    """Scheduling manager invariant violated."""


class ClusterError(SDVMError):
    """Sign-on/sign-off or cluster membership failure."""


class MemoryFault(SDVMError):
    """Attraction memory access failure (missing object, coherency breach)."""


class SecurityError(SDVMError):
    """Decryption/authentication failure or key exchange problem."""


class ProgramError(SDVMError):
    """Error raised by or about a user program (microthread exception...)."""


class FrameStateError(SDVMError):
    """Illegal microframe state transition (e.g. double parameter apply)."""
