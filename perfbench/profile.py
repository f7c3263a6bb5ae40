"""Print the per-layer self-time table of a traced run.

    python3 perfbench/profile.py .perfbench/spans-NAME.spans [WORKER.spans]

Reads the spans that ``run.py --trace 1`` wrote (on TCP, the coordinator's
and the worker's files) and prints, per span name, the calls, the total
time, the self time (duration minus child spans) and the self time's share
of all top-level spans.  Times are raw seconds of the traced run, tracing
overhead included.
"""

from __future__ import annotations

import sys

from tracing import load_spans, summarise

#: What each span times, in the words of the ROADMAP profile table.
LAYERS = {
    "lang.build": "repro.programs.load_workload (compile the workload)",
    "decode.build": "decode + compile() of the generated per-pc source",
    "faults.plan": "SymbolicCampaign.plan_injections",
    "injection": "SymbolicCampaign.run_injection, outside the layers below",
    "prefix": "golden prefix up to the injection point",
    "search": "BoundedModelChecker.search, outside the layers below",
    "step": "symbolic Executor.step",
    "concrete_tail": "err-free tails in run_concrete",
    "constraints": "ConstraintMap.satisfiable",
    "dedup.fingerprint": "MachineState.fingerprint",
    "dedup.eq": "Fingerprint.__eq__ (structural check on dedup hits)",
    "results.append": "SqliteResultStore.append",
    "results.flush": "SqliteResultStore.flush",
    "net.send": "repro.net framing: send_message",
    "net.recv": "repro.net framing: recv_message (includes waiting)",
}


def main(paths) -> int:
    table = {}
    roots = 0.0
    for path in paths:
        _, names, columns = load_spans(path)
        rows, _ = summarise(names, columns)
        roots += sum(end - start for start, end, parent in zip(
            columns.starts, columns.ends, columns.parents) if parent < 0)
        for name, row in rows.items():
            total = table.setdefault(name, [0, 0.0, 0.0])
            for column in range(3):
                total[column] += row[column]
    print(f"{'span':<26} {'calls':>9} {'total s':>10} {'self s':>10} "
          f"{'self %':>7}  layer")
    for name, (calls, total, own) in sorted(table.items(),
                                            key=lambda item: -item[1][2]):
        layer = LAYERS.get(name, "SocketBroker." + name[7:]
                           if name.startswith("broker.") else "")
        print(f"{name:<26} {calls:>9} {total:>10.3f} {own:>10.3f} "
              f"{100 * own / roots:>6.1f}%  {layer}")

    def own(*names):
        return sum(table.get(name, [0, 0.0, 0.0])[2] for name in names)

    search = table.get("search", [0, 0.0, 0.0])[1]
    print(f"\ntop-level spans: {roots:.3f} s")
    if search:
        print(f"concrete_tail self / search total: "
              f"{own('concrete_tail') / search:.1%}")
    print(f"step + constraints + dedup self / top-level: "
          f"{own('step', 'constraints', 'dedup.fingerprint', 'dedup.eq') / roots:.1%}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
