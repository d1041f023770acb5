"""Exception hierarchy for the Snowcat reproduction.

All library-specific failures derive from :class:`ReproError` so callers can
catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class KernelBuildError(ReproError):
    """Raised when a synthetic kernel cannot be constructed as requested."""


class ExecutionError(ReproError):
    """Raised when the interpreter encounters an invalid machine state."""


class ExecutionLimitExceeded(ExecutionError):
    """Raised when an execution exceeds its instruction budget.

    Used to bound runaway loops in the synthetic kernel; executors treat it
    as a failed (but recorded) test rather than a crash of the framework.
    """


class ScheduleError(ReproError):
    """Raised when scheduling hints are inconsistent (e.g. unknown thread)."""


class FaultSpecError(ReproError):
    """Raised when a fault-injection spec string cannot be parsed."""


class SpecError(ReproError):
    """Raised when a :class:`repro.run.RunSpec` cannot be run as written:
    a combination of settings that is refused (one of them could not
    take effect), or a journal, socket or checkpoint it names that
    cannot be opened."""


class JournalError(ReproError):
    """Raised when a campaign journal is corrupt or inconsistent with the
    run being resumed (wrong seed, wrong CTI stream, missing checkpoint)."""


class OracleError(ReproError):
    """Raised when a ground-truth oracle cannot be constructed or applied."""


class OracleLimitError(OracleError):
    """Raised when exhaustive exploration exceeds one of its bounds.

    Exceeding a budget means the derived sets would be *partial* ground
    truth, which is worse than no ground truth — conformance checks against
    them could pass vacuously or fail spuriously — so the explorer refuses
    to return them.

    ``limit`` names the bound that was hit (``"threads"``, ``"steps"``,
    ``"schedules"``, ...) and ``observed`` carries the offending value, so
    callers can distinguish "CT too large for this oracle configuration"
    from "exploration blew its budget" programmatically.
    """

    def __init__(self, message, *, limit=None, observed=None):
        super().__init__(message)
        self.limit = limit
        self.observed = observed


class QualityGateError(OracleError):
    """Raised when a model-quality baseline is missing, malformed, or was
    produced under different pinned-configuration settings than the run
    being gated (comparing those numbers would be meaningless)."""


class DatasetError(ReproError):
    """Raised when a graph dataset is malformed or empty."""


class ModelError(ReproError):
    """Raised on invalid model configuration or shape mismatches."""


class ServeError(ReproError):
    """Raised when the prediction service cannot satisfy a request
    (unknown model version, server unreachable, server-side failure)."""


class ProtocolError(ServeError):
    """Raised on a malformed frame or payload on the serving socket."""


class CheckpointError(ModelError):
    """Raised when a model checkpoint cannot be saved or restored."""


class FleetError(ReproError):
    """Raised when a distributed campaign fleet cannot make progress
    (a job exhausted its attempt budget, every worker is quarantined,
    or a provenance receipt fails verification)."""
