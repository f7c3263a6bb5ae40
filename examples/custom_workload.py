#!/usr/bin/env python3
"""Bring your own workload: minic, MIPS, detectors and fault models.

This example shows the full tool surface for a user-supplied program:

* compile a small minic program (a saturating sensor filter) to the
  SymPLFIED ISA,
* attach detectors written in the paper's ``det(...)`` format,
* use the query generator to sweep the fault models of Table 1's error
  categories (register, bus, functional-unit, decode, fetch, control-flow),
  and
* translate a MIPS snippet with the MIPS front-end and analyse it the same way.

Run with:  python examples/custom_workload.py
"""

from repro.core import SymbolicCampaign
from repro.detectors import DetectorSet
from repro.faults import FAULT_MODELS, fault_model
from repro.frontend import generate_query, translate_mips
from repro.lang import compile_source
from repro.machine import ExecutionConfig
from repro.programs.base import Workload


SENSOR_FILTER = """
// Clamp a stream of sensor samples into [0, 1000] and report the mean.
const LIMIT = 1000;
int samples;
int total;

int clamp(int value) {
    if (value < 0) { return 0; }
    if (value > LIMIT) { return LIMIT; }
    return value;
}

int main() {
    int i;
    int value;
    read(samples);
    i = 0;
    total = 0;
    while (i < samples) {
        read(value);
        total = total + clamp(value);
        i = i + 1;
        check(1);
    }
    print(total / samples);
    return 0;
}
"""

#: Detector 1: the running total may never exceed samples * LIMIT
#: (memory word 1001 is `total`, 1000 is `samples` — see the data segment map).
SENSOR_DETECTORS = """
det(1, *(1001), <=, *(1000) * (1000))
"""

MIPS_SNIPPET = """
# absolute difference of two inputs
        read $a0
        read $a1
        sub  $t0, $a0, $a1
        bgez $t0, done
        sub  $t0, $zero, $t0
done:   print $t0
        halt
"""


def analyse(workload: Workload, label: str) -> None:
    print(f"--- {label}: {len(workload.program)} instructions, "
          f"golden output {workload.golden_output()} ---")
    golden = workload.golden_output()
    query = generate_query("undetected-failure", golden_output=golden)
    # Table 1's bus row is planned by the "operand" model.
    for category in ("register", "operand", "functional-unit", "fetch"):
        campaign = SymbolicCampaign(
            workload.program,
            input_values=workload.default_input,
            memory=workload.data_segment,
            detectors=workload.detectors,
            fault_model=fault_model(category),
            execution_config=ExecutionConfig(
                max_steps=workload.recommended_max_steps,
                control_fork_domain="labels"),
            max_solutions_per_injection=3,
            max_states_per_injection=5_000)
        injections = campaign.enumerate_injections()[:25]
        result = campaign.run(query, injections=injections)
        print(f"  {category:16s}: {result.injections_run} injections, "
              f"{result.injections_with_solutions} expose undetected failures, "
              f"{result.total_solutions} failure states")
    print()


def main() -> None:
    compiled = compile_source(SENSOR_FILTER, name="sensor_filter")
    print("data segment map:", {name: info.address
                                for name, info in compiled.globals.items()})
    sensor = Workload(
        name="sensor_filter",
        program=compiled.program,
        description="saturating sensor filter written in minic",
        data_segment=compiled.initial_memory(),
        detectors=DetectorSet.parse(SENSOR_DETECTORS),
        default_input=(4, 100, 2000, -50, 900),
        recommended_max_steps=3_000,
        compiled=compiled)
    analyse(sensor, "minic sensor filter (with a detector)")

    mips_program = translate_mips(MIPS_SNIPPET, name="absdiff")
    absdiff = Workload(
        name="absdiff",
        program=mips_program,
        description="absolute difference, translated from MIPS",
        default_input=(3, 10),
        recommended_max_steps=200)
    analyse(absdiff, "MIPS snippet translated by the front-end")

    print("available fault models:", ", ".join(sorted(FAULT_MODELS)))


if __name__ == "__main__":
    main()
