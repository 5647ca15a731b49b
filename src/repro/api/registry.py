"""String-addressable registries for protocols, graphs and schedulers.

The run-spec layer (:mod:`repro.api.spec`) describes an experiment as plain
data — ``{"graph": "random-digraph", "protocol": "general-broadcast", ...}``
— so every component a spec can name must be reachable from a string.  A
:class:`Registry` maps such names to factories; the component modules
register themselves at import time with the decorator form::

    from ..api.registry import PROTOCOLS

    @PROTOCOLS.register()
    class TreeBroadcastProtocol(AnonymousProtocol):
        name = "tree-broadcast"

Seven registries cover the spec vocabulary:

* :data:`PROTOCOLS` — :class:`~repro.core.model.AnonymousProtocol`
  subclasses, keyed by their ``name`` attribute.
* :data:`GRAPHS` — generator/construction functions returning a
  :class:`~repro.network.graph.DirectedNetwork`, keyed by the kebab-cased
  function name (``random_digraph`` → ``"random-digraph"``).
* :data:`GRAPH_TRANSFORMS` — ``DirectedNetwork → DirectedNetwork``
  post-processors (e.g. the E8 "bad graph" mutators).
* :data:`SCHEDULERS` — :class:`~repro.network.scheduler.Scheduler`
  subclasses, keyed by their class-level ``name``: every delivery
  adversary, harsh ones such as ``"starve-one-edge"`` included.  A fault
  model wraps the chosen scheduler; it never names another.
* :data:`ENGINES` — execution engines:
  :class:`~repro.api.engines.EngineInfo` entries whose ``run_one`` takes
  ``(spec, network, protocol)`` and returns ``(result, extra_metrics)``
  (see :mod:`repro.api.engines`).  ``RunSpec(engine=...)`` selects one.
* :data:`AGGREGATORS` — row aggregators: callables collapsing a list of
  :class:`~repro.api.spec.RunRecord` into the experiment tables' dict rows
  (see :mod:`repro.api.aggregators`).
* :data:`EXPERIMENTS` — whole experiment campaigns.  Unlike the other
  registries this one holds *objects*, not factories: each entry is a
  :class:`~repro.api.campaign.ExperimentSpec` (a declarative parameter
  grid) or a :class:`~repro.api.campaign.DriverExperiment` (a legacy
  imperative driver referenced by dotted name), looked up with ``.get``.

This module is intentionally a leaf: it imports nothing from the rest of
the package, so any component module may import it without cycles.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, Tuple

__all__ = [
    "UnknownNameError",
    "DuplicateNameError",
    "Registry",
    "PROTOCOLS",
    "GRAPHS",
    "GRAPH_TRANSFORMS",
    "SCHEDULERS",
    "ENGINES",
    "AGGREGATORS",
    "EXPERIMENTS",
    "all_registries",
]


class UnknownNameError(KeyError):
    """A name was looked up that no component registered."""

    def __init__(self, kind: str, name: str, known: Tuple[str, ...]) -> None:
        self.kind = kind
        self.name = name
        self.known = known
        super().__init__(name)

    def __str__(self) -> str:
        choices = ", ".join(self.known) if self.known else "<registry is empty>"
        return f"unknown {self.kind} {self.name!r}; registered: {choices}"


class DuplicateNameError(ValueError):
    """Two components tried to claim the same name."""


def _default_name(obj: Any) -> str:
    """The registration name implied by the object itself.

    Classes with a string ``name`` attribute (protocols, schedulers) use it;
    everything else uses the kebab-cased ``__name__``.
    """
    attr = getattr(obj, "name", None)
    if isinstance(attr, str) and attr:
        return attr
    return obj.__name__.replace("_", "-")


class Registry:
    """An ordered name → factory mapping with decorator registration.

    >>> COLORS = Registry("color")
    >>> @COLORS.register("red")
    ... def make_red():
    ...     return "#ff0000"
    >>> COLORS.create("red")
    '#ff0000'
    >>> "red" in COLORS and "blue" not in COLORS
    True
    """

    def __init__(self, kind: str) -> None:
        #: What the registry holds, e.g. ``"protocol"`` — used in error text.
        self.kind = kind
        self._factories: Dict[str, Callable[..., Any]] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(
        self, name: Optional[str] = None, factory: Optional[Callable[..., Any]] = None
    ):
        """Register a factory, as a decorator or a direct call.

        ``@REG.register()`` (name inferred), ``@REG.register("name")``, or
        ``REG.register("name", factory)``.  Re-registering a taken name
        raises :class:`DuplicateNameError` — names are a public, stable API.
        """
        if factory is not None:
            if name is None:
                raise TypeError("direct registration requires an explicit name")
            self._add(name, factory)
            return factory

        def decorator(obj: Callable[..., Any]) -> Callable[..., Any]:
            self._add(name or _default_name(obj), obj)
            return obj

        return decorator

    def _add(self, name: str, factory: Callable[..., Any]) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string")
        existing = self._factories.get(name)
        if existing is not None and existing is not factory:
            raise DuplicateNameError(
                f"{self.kind} name {name!r} already registered to {existing!r}"
            )
        self._factories[name] = factory

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def get(self, name: str) -> Callable[..., Any]:
        """The factory registered under ``name``.

        Raises
        ------
        UnknownNameError
            Listing every registered name, so typos are one glance away.
        """
        try:
            return self._factories[name]
        except KeyError:
            raise UnknownNameError(self.kind, name, self.names()) from None

    def create(self, name: str, *args: Any, **params: Any) -> Any:
        """Instantiate ``name`` with the given arguments."""
        return self.get(name)(*args, **params)

    def names(self) -> Tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._factories))

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {len(self)} entries)"


#: Anonymous protocols, by their ``name`` attribute.
PROTOCOLS = Registry("protocol")
#: Graph generators and witness constructions, by kebab-cased function name.
GRAPHS = Registry("graph")
#: Network → network post-processors applied after generation.
GRAPH_TRANSFORMS = Registry("graph transform")
#: Delivery schedulers, by their class-level ``name``.
SCHEDULERS = Registry("scheduler")
#: Execution engines, by name (``"async"``, ``"fastpath"``, ``"batch"``).
ENGINES = Registry("engine")
#: RunRecord-list → row-dict-list aggregators, by name.
AGGREGATORS = Registry("aggregator")
#: Experiment campaigns (``"e01"`` … ``"e18"`` plus user registrations).
EXPERIMENTS = Registry("experiment")


def all_registries() -> Dict[str, Registry]:
    """The spec vocabulary, for introspection (``repro registry``)."""
    return {
        "protocols": PROTOCOLS,
        "graphs": GRAPHS,
        "graph-transforms": GRAPH_TRANSFORMS,
        "schedulers": SCHEDULERS,
        "engines": ENGINES,
        "aggregators": AGGREGATORS,
        "experiments": EXPERIMENTS,
    }
