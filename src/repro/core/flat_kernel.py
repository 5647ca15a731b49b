"""Shared flat-array kernel base for the fast-path engine.

:mod:`repro.core.interval_kernel` proved the compiled-kernel design on the
Section 4/5 interval protocols; this module generalises the pattern to the
*counter/bit-set* protocols — the grounded-tree and DAG commodity
protocols and the baselines — whose per-vertex state is a handful of
scalars.  The shared pieces live here once:

* **dyadic pair arithmetic** — a normalised ``(num, exp)`` pair of plain
  ints mirrors :class:`~repro.core.dyadic.Dyadic` exactly (same canonical
  form, same addition), so commodity sums computed on int pairs are
  bit-for-bit the sums the reference protocols compute on objects;
* **bit costs** — :func:`_ucost` / :func:`_scost` / :func:`_dcost`
  replicate the Elias-delta arithmetic of :mod:`repro.core.encoding`
  without allocating writers, so ``total_bits`` accounting is identical;
* **:class:`FlatKernel`** — the machine-interface scaffolding every kernel
  shares (terminal/out-degree tables, payload-bit charging, the default
  ``output``), plus the ``snapshot()``/``restore()`` pair the
  :mod:`~repro.lowerbounds.schedules` explorer uses to branch without
  ``copy.deepcopy``.

Concrete kernels for the scalar protocols follow: the power-of-two tree
split (:class:`TreeBroadcastKernel`, shared by the eager-DAG baseline),
the aggregate-then-split DAG rule (:class:`DagBroadcastKernel`), the naive
rational split (:class:`NaiveTreeKernel`) and plain flooding
(:class:`FloodingKernel`).  Each is *exactly* result-equivalent to running
its protocol through the reference loop — same emissions in the same
port order, same bit accounting, same termination step — which the
differential suite (``tests/api/test_engine_differential.py``) enforces
for every protocol × graph family × scheduler combination.  Real state
objects are materialised only once, at the end of the run.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Any, Dict, List, Tuple

__all__ = [
    "FlatKernel",
    "TreeBroadcastKernel",
    "DagBroadcastKernel",
    "NaiveTreeKernel",
    "FloodingKernel",
]


# ----------------------------------------------------------------------
# Dyadic (num, exp) arithmetic — mirrors repro.core.dyadic exactly
# ----------------------------------------------------------------------


def _norm(num: int, exp: int) -> Tuple[int, int]:
    """Canonicalise ``num / 2**exp`` (num odd or exp == 0; zero is (0, 0))."""
    if num == 0:
        return 0, 0
    shift = (num & -num).bit_length() - 1
    if shift > exp:
        shift = exp
    return num >> shift, exp - shift


def _add(an: int, ae: int, bn: int, be: int) -> Tuple[int, int]:
    if ae >= be:
        return _norm(an + (bn << (ae - be)), ae)
    return _norm((an << (be - ae)) + bn, be)


def _sub(an: int, ae: int, bn: int, be: int) -> Tuple[int, int]:
    if ae >= be:
        return _norm(an - (bn << (ae - be)), ae)
    return _norm((an << (be - ae)) - bn, be)


def _lt(an: int, ae: int, bn: int, be: int) -> bool:
    """a < b for normalised dyadic pairs."""
    if ae >= be:
        return an < (bn << (ae - be))
    return (an << (be - ae)) < bn


def _le(an: int, ae: int, bn: int, be: int) -> bool:
    """a <= b for normalised dyadic pairs."""
    if ae >= be:
        return an <= (bn << (ae - be))
    return (an << (be - ae)) <= bn


# ----------------------------------------------------------------------
# Bit costs — mirrors repro.core.encoding exactly
# ----------------------------------------------------------------------


def _ucost(value: int) -> int:
    """``unsigned_cost``: Elias-delta length of ``value + 1``."""
    nbits = (value + 1).bit_length()
    return 2 * nbits.bit_length() + nbits - 2


def _scost(value: int) -> int:
    """``signed_cost``: zig-zag mapping onto the unsigned code."""
    mapped = value + value if value >= 0 else -value - value - 1
    return _ucost(mapped)


def _dcost(num: int, exp: int) -> int:
    """``dyadic_cost`` of a normalised pair (zig-zag num + unsigned exp)."""
    return _scost(num) + _ucost(exp)


# ----------------------------------------------------------------------
# Kernel base
# ----------------------------------------------------------------------


class FlatKernel:
    """Machine-interface scaffolding shared by the flat-state kernels.

    Subclasses implement ``initial_emissions`` / ``deliver`` /
    ``check_terminal`` / ``finalize_states`` over their own flat arrays and
    the ``snapshot()`` / ``restore()`` pair used by the schedule explorer.
    Emissions are ``(out_port, payload, bits)`` triples, exactly as the
    engine drivers in :mod:`repro.network.fastpath` consume them.
    """

    __slots__ = ("protocol", "terminal", "out_degree", "payload_bits")

    def __init__(self, protocol: Any, compiled: Any) -> None:
        self.protocol = protocol
        self.terminal = compiled.terminal
        self.out_degree: List[int] = [
            len(ports) for ports in compiled.out_edge_ids
        ]
        self.payload_bits: int = int(getattr(protocol, "payload_bits", 0))

    def output(self, terminal: int) -> Any:
        # Only consulted on termination, which requires a received message;
        # every scalar protocol outputs the delivered broadcast payload.
        return self.protocol.broadcast_payload

    def snapshot(self) -> Tuple:  # pragma: no cover - abstract
        raise NotImplementedError

    def restore(self, snap: Tuple) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


def _split_exponent_table(out_degrees: List[int]) -> List[Tuple[int, ...]]:
    """Per-vertex power-of-two split increments, shared per out-degree."""
    from .tree_broadcast import pow2_split_exponents

    cache: Dict[int, Tuple[int, ...]] = {}
    table: List[Tuple[int, ...]] = []
    for d in out_degrees:
        if d == 0:
            table.append(())
            continue
        if d not in cache:
            cache[d] = tuple(pow2_split_exponents(d))
        table.append(cache[d])
    return table


class TreeBroadcastKernel(FlatKernel):
    """Flat machine for the Section 3.1 power-of-two commodity split.

    Per-vertex state is a normalised dyadic pair (the received sum) plus a
    receipt flag; a message is just the token's exponent (the payload is a
    run constant, carried implicitly).  Also serves the eager-DAG baseline,
    whose transition rules are identical.
    """

    __slots__ = ("sums", "got", "port_exponents")

    def __init__(self, protocol: Any, compiled: Any) -> None:
        super().__init__(protocol, compiled)
        n = compiled.num_vertices
        self.sums: List[Tuple[int, int]] = [(0, 0)] * n
        self.got: List[bool] = [False] * n
        self.port_exponents = _split_exponent_table(self.out_degree)

    def initial_emissions(self, root: int) -> List[Tuple[int, int, int]]:
        if self.out_degree[root] < 1:
            from .tree_broadcast import pow2_split_exponents

            pow2_split_exponents(self.out_degree[root])  # raises, as reference
        pb = self.payload_bits
        return [
            (port, inc, _ucost(inc) + pb)
            for port, inc in enumerate(self.port_exponents[root])
        ]

    def deliver(self, vertex: int, in_port: int, exponent: int):
        num, exp = self.sums[vertex]
        self.sums[vertex] = _add(num, exp, 1, exponent)
        self.got[vertex] = True
        incs = self.port_exponents[vertex]
        if not incs:
            return ()
        pb = self.payload_bits
        return [
            (port, exponent + inc, _ucost(exponent + inc) + pb)
            for port, inc in enumerate(incs)
        ]

    def check_terminal(self, terminal: int) -> bool:
        return self.sums[terminal] == (1, 0)

    def finalize_states(self) -> Dict[int, Any]:
        from .dyadic import Dyadic
        from .tree_broadcast import TreeState

        payload = self.protocol.broadcast_payload
        return {
            v: TreeState(
                received_sum=Dyadic(num, exp),
                got_broadcast=got,
                payload=payload if got else None,
            )
            for v, ((num, exp), got) in enumerate(zip(self.sums, self.got))
        }

    def snapshot(self) -> Tuple:
        return (tuple(self.sums), tuple(self.got))

    def restore(self, snap: Tuple) -> None:
        self.sums = list(snap[0])
        self.got = list(snap[1])


class DagBroadcastKernel(FlatKernel):
    """Flat machine for the Section 3.3 aggregate-then-split DAG rule.

    State is ``(heard, acc, fired)`` per vertex; a message is the general
    dyadic commodity value as a normalised pair.
    """

    __slots__ = ("heard", "acc", "fired", "got", "in_degree", "port_exponents")

    def __init__(self, protocol: Any, compiled: Any) -> None:
        super().__init__(protocol, compiled)
        n = compiled.num_vertices
        self.heard: List[int] = [0] * n
        self.acc: List[Tuple[int, int]] = [(0, 0)] * n
        self.fired: List[bool] = [False] * n
        self.got: List[bool] = [False] * n
        self.in_degree: List[int] = [view.in_degree for view in compiled.views]
        self.port_exponents = _split_exponent_table(self.out_degree)

    def initial_emissions(self, root: int) -> List[Tuple[int, Any, int]]:
        if self.out_degree[root] < 1:
            from .tree_broadcast import pow2_split_exponents

            pow2_split_exponents(self.out_degree[root])  # raises, as reference
        pb = self.payload_bits
        return [
            (port, (1, inc), _dcost(1, inc) + pb)
            for port, inc in enumerate(self.port_exponents[root])
        ]

    def deliver(self, vertex: int, in_port: int, value: Tuple[int, int]):
        heard = self.heard[vertex] + 1
        self.heard[vertex] = heard
        an, ae = self.acc[vertex]
        an, ae = _add(an, ae, value[0], value[1])
        self.acc[vertex] = (an, ae)
        self.got[vertex] = True
        if (
            heard == self.in_degree[vertex]
            and self.out_degree[vertex] > 0
            and not self.fired[vertex]
        ):
            self.fired[vertex] = True
            pb = self.payload_bits
            out = []
            for port, inc in enumerate(self.port_exponents[vertex]):
                on, oe = _norm(an, ae + inc)
                out.append((port, (on, oe), _dcost(on, oe) + pb))
            return out
        return ()

    def check_terminal(self, terminal: int) -> bool:
        return self.acc[terminal] == (1, 0)

    def finalize_states(self) -> Dict[int, Any]:
        from .dag_broadcast import DagState
        from .dyadic import Dyadic

        payload = self.protocol.broadcast_payload
        states: Dict[int, Any] = {}
        for v, (num, exp) in enumerate(self.acc):
            got = self.got[v]
            states[v] = DagState(
                heard=self.heard[v],
                acc=Dyadic(num, exp),
                got_broadcast=got,
                payload=payload if got else None,
                fired=self.fired[v],
            )
        return states

    def snapshot(self) -> Tuple:
        return (
            tuple(self.heard),
            tuple(self.acc),
            tuple(self.fired),
            tuple(self.got),
        )

    def restore(self, snap: Tuple) -> None:
        self.heard = list(snap[0])
        self.acc = list(snap[1])
        self.fired = list(snap[2])
        self.got = list(snap[3])


class NaiveTreeKernel(FlatKernel):
    """Flat machine for the naive ``x/d`` rational split (ablation E9).

    Commodity values are exact rationals kept as reduced ``(num, den)``
    int pairs — the same canonical form :class:`~fractions.Fraction`
    maintains, so encoded sizes (zig-zag numerator + unsigned denominator)
    agree bit for bit.
    """

    __slots__ = ("sums", "got")

    def __init__(self, protocol: Any, compiled: Any) -> None:
        super().__init__(protocol, compiled)
        n = compiled.num_vertices
        self.sums: List[Tuple[int, int]] = [(0, 1)] * n
        self.got: List[bool] = [False] * n

    def initial_emissions(self, root: int) -> List[Tuple[int, Any, int]]:
        d = self.out_degree[root]
        share = Fraction(1, d)  # raises ZeroDivisionError exactly as reference
        value = (share.numerator, share.denominator)
        pb = self.payload_bits
        bits = _scost(value[0]) + _ucost(value[1]) + pb
        return [(port, value, bits) for port in range(d)]

    def deliver(self, vertex: int, in_port: int, value: Tuple[int, int]):
        vn, vd = value
        sn, sd = self.sums[vertex]
        num = sn * vd + vn * sd
        den = sd * vd
        g = gcd(num, den)
        self.sums[vertex] = (num // g, den // g)
        self.got[vertex] = True
        d = self.out_degree[vertex]
        if d == 0:
            return ()
        sden = vd * d
        g = gcd(vn, sden)
        share = (vn // g, sden // g)
        pb = self.payload_bits
        bits = _scost(share[0]) + _ucost(share[1]) + pb
        return [(port, share, bits) for port in range(d)]

    def check_terminal(self, terminal: int) -> bool:
        return self.sums[terminal] == (1, 1)

    def finalize_states(self) -> Dict[int, Any]:
        from ..baselines.naive_tree import NaiveTreeState

        payload = self.protocol.broadcast_payload
        return {
            v: NaiveTreeState(
                received_sum=Fraction(num, den),
                got_broadcast=got,
                payload=payload if got else None,
            )
            for v, ((num, den), got) in enumerate(zip(self.sums, self.got))
        }

    def snapshot(self) -> Tuple:
        return (tuple(self.sums), tuple(self.got))

    def restore(self, snap: Tuple) -> None:
        self.sums = list(snap[0])
        self.got = list(snap[1])


class FloodingKernel(FlatKernel):
    """Flat machine for the no-termination flooding baseline.

    The entire per-vertex state is one receipt bit; messages carry no
    termination information at all, so every emission list is precomputed
    at compile time and shared per out-degree.
    """

    __slots__ = ("got", "vertex_emissions")

    def __init__(self, protocol: Any, compiled: Any) -> None:
        super().__init__(protocol, compiled)
        n = compiled.num_vertices
        self.got: List[bool] = [False] * n
        bits = 1 + self.payload_bits
        cache: Dict[int, List[Tuple[int, Any, int]]] = {}
        self.vertex_emissions: List[List[Tuple[int, Any, int]]] = []
        for d in self.out_degree:
            if d not in cache:
                cache[d] = [(port, None, bits) for port in range(d)]
            self.vertex_emissions.append(cache[d])

    def initial_emissions(self, root: int) -> List[Tuple[int, Any, int]]:
        return self.vertex_emissions[root]

    def deliver(self, vertex: int, in_port: int, message: Any):
        if self.got[vertex]:
            return ()
        self.got[vertex] = True
        return self.vertex_emissions[vertex]

    def check_terminal(self, terminal: int) -> bool:
        # No sound stopping rule exists without termination information —
        # the honest constant-false predicate, exactly as the reference.
        return False

    def finalize_states(self) -> Dict[int, Any]:
        from ..baselines.flooding import FloodState

        payload = self.protocol.broadcast_payload
        return {
            v: FloodState(got_broadcast=got, payload=payload if got else None)
            for v, got in enumerate(self.got)
        }

    def snapshot(self) -> Tuple:
        return (tuple(self.got),)

    def restore(self, snap: Tuple) -> None:
        self.got = list(snap[0])
