"""Network substrate: anonymous directed multigraphs and the async simulator."""

from .events import MessageEvent
from .graph import DirectedNetwork, NetworkValidationError
from .metrics import MetricsCollector, RunMetrics
from .scheduler import (
    FifoScheduler,
    LatencyScheduler,
    LifoScheduler,
    PortBiasedScheduler,
    RandomScheduler,
    Scheduler,
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
    OldestLastScheduler,
    StarveOneEdgeScheduler,
)
from .simulator import Outcome, RunResult, SimulationError, run_protocol
from .synchronous import SynchronousRunResult, run_protocol_synchronous
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
    "TerminalLastScheduler",
    "TerminalFirstScheduler",
    "PortBiasedScheduler",
    "make_standard_schedulers",
    "standard_scheduler_specs",
    "FaultSpec",
    "FaultSpecError",
    "CrashFault",
    "ChurnFault",
    "FaultInjector",
    "StarveOneEdgeScheduler",
    "OldestLastScheduler",
    "Outcome",
    "RunResult",
    "SimulationError",
    "run_protocol",
    "CompiledNetwork",
    "FastEvent",
    "run_protocol_fastpath",
    "SynchronousRunResult",
    "run_protocol_synchronous",
    "DeliveryRecord",
    "Trace",
]
