#!/usr/bin/env python3
"""Fault injection: what the paper's protocols do when the model breaks.

The README's "Fault scenarios" snippet, expanded into a runnable tour:

1. attach a declarative :class:`repro.FaultSpec` to a run spec — message
   loss plus a churn interval — and execute it on the fastpath engine,
2. check the fail-safe contract (loss stalls termination, never fakes it)
   and read the fault counters out of the record,
3. verify determinism-by-seed and async/fastpath engine equivalence,
4. run a crash schedule, and loss under an adversarial scheduler,
5. sweep the loss rate the way campaign ``e17`` does.

Run:  python examples/fault_injection.py
"""

from repro.api import RunSpec, execute_spec, execute_spec_full
from repro.core.invariants import labels_disjoint_globally


def base_spec(**overrides) -> RunSpec:
    fields = dict(
        graph="random-digraph",
        graph_params={"num_internal": 12},
        protocol="general-broadcast",
        engine="fastpath",
        seed=2,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def main() -> None:
    # --- 1 + 2: loss + churn, fail-safe outcome, fault counters --------
    spec = base_spec(
        faults={
            "drop_probability": 0.1,
            "churn": [{"vertex": 3, "leave_step": 10, "rejoin_step": 60}],
        }
    )
    record = execute_spec(spec)
    assert record.outcome in ("terminated", "quiescent-without-termination")
    counters = {k: v for k, v in record.metrics.items() if k.startswith("fault_")}
    print(f"outcome under loss+churn: {record.outcome}")
    print(f"fault counters: {counters}")

    # --- 3: deterministic given (spec, seed), identical across engines -
    assert execute_spec(spec).comparable_dict() == record.comparable_dict()
    async_record = execute_spec(RunSpec.from_dict({**spec.to_dict(), "engine": "async"}))
    fast, slow = record.comparable_dict(), async_record.comparable_dict()
    fast["spec"].pop("engine"), slow["spec"].pop("engine")
    assert fast == slow, "faulty runs are engine-identical"
    print("determinism + engine equivalence hold")

    # --- 4a: crash the terminal — termination becomes impossible -------
    crashed = execute_spec(base_spec(faults={"crashes": [{"vertex": 1, "step": 0}]}))
    assert not crashed.terminated
    print(f"terminal crashed at step 0: {crashed.outcome}")

    # --- 4b: the fault model wraps any scheduler, harsh ones included --
    starved = execute_spec(base_spec(scheduler="starve-one-edge", faults={"delay_probability": 0.2}))
    assert starved.terminated, "starvation and delay are just a harsher schedule"
    print(f"starve-one-edge + delay still terminates: messages={starved.metrics['total_messages']}")

    # --- 4c: churn under labeling — safety survives the reset ----------
    rec, result, _net = execute_spec_full(
        base_spec(
            protocol="label-assignment",
            faults={"churn": [{"vertex": 4, "leave_step": 15, "rejoin_step": 70}]},
        )
    )
    assert labels_disjoint_globally(result.states)
    print(f"labels stay disjoint under churn (rejoins={rec.metrics['fault_rejoined']})")

    # --- 5: the e17 question in four lines -----------------------------
    print("\nloss rate -> termination over 4 seeds:")
    for rate in (0.0, 0.05, 0.2, 0.5):
        records = [
            execute_spec(base_spec(seed=s, faults={"drop_probability": rate}))
            for s in range(4)
        ]
        done = sum(r.terminated for r in records)
        print(f"  drop={rate:4.2f}  terminated {done}/4")
    print("\n(the registered campaign does this at scale: repro experiment e17)")


if __name__ == "__main__":
    main()
