"""Network substrate: anonymous directed multigraphs and the async simulator."""

from .events import MessageEvent
from .graph import DirectedNetwork, NetworkValidationError
from .metrics import MetricsCollector, RunMetrics
from .scheduler import (
    FifoScheduler,
    LatencyScheduler,
    LifoScheduler,
    OldestLastScheduler,
    PortBiasedScheduler,
    RandomScheduler,
    RoundsScheduler,
    Scheduler,
    StarveOneEdgeScheduler,
    TerminalFirstScheduler,
    TerminalLastScheduler,
    make_standard_schedulers,
    standard_scheduler_specs,
)
from .fastpath import CompiledNetwork, FastEvent, run_protocol_fastpath
from .faults import (
    ChurnFault,
    CrashFault,
    FaultInjector,
    FaultSpec,
    FaultSpecError,
)
from .simulator import Outcome, RunResult, SimulationError, run_protocol
from .trace import DeliveryRecord, Trace

__all__ = [
    "DirectedNetwork",
    "NetworkValidationError",
    "MessageEvent",
    "MetricsCollector",
    "RunMetrics",
    "Scheduler",
    "FifoScheduler",
    "LifoScheduler",
    "RandomScheduler",
    "LatencyScheduler",
    "RoundsScheduler",
    "TerminalLastScheduler",
    "TerminalFirstScheduler",
    "PortBiasedScheduler",
    "StarveOneEdgeScheduler",
    "OldestLastScheduler",
    "make_standard_schedulers",
    "standard_scheduler_specs",
    "FaultSpec",
    "FaultSpecError",
    "CrashFault",
    "ChurnFault",
    "FaultInjector",
    "Outcome",
    "RunResult",
    "SimulationError",
    "run_protocol",
    "CompiledNetwork",
    "FastEvent",
    "run_protocol_fastpath",
    "DeliveryRecord",
    "Trace",
]
