"""SymPLFIED: Symbolic Program-Level Fault Injection and Error Detection (reproduction).

This package reproduces the framework of Pattabiraman, Nakka, Kalbarczyk and
Iyer, *SymPLFIED: Symbolic Program Level Fault Injection and Error Detection
Framework* (DSN 2008) as a pure-Python library:

* :mod:`repro.isa` -- the generic, MIPS-like assembly language;
* :mod:`repro.machine` -- the machine model (state + execution semantics);
* :mod:`repro.errors` -- the error model (symbolic ``err``, propagation,
  comparison forking, injection breakpoints);
* :mod:`repro.faults` -- the fault models, one per row of Table 1 plus
  burst and bit-flip: picklable ``FaultSpec`` injection spaces, enumerated
  or seed-sampled, carried unchanged by every execution backend;
* :mod:`repro.constraints` -- constraint tracking and the custom solver;
* :mod:`repro.detectors` -- the detector model (``CHECK`` / ``det(...)``);
* :mod:`repro.core` -- the symbolic engine: bounded model checking, outcome
  queries, fault-injection campaigns and search-task decomposition;
* :mod:`repro.concrete` -- concrete-value fault injection (the SimpleScalar
  substitute): the Table 2 value campaign and the symbolic-vs-bit-flip
  parity study, both run through the symbolic campaign's one injection
  engine;
* :mod:`repro.lang` -- the minic compiler used to express workloads;
* :mod:`repro.frontend` -- the MIPS translator and the query generator;
* :mod:`repro.programs` -- the workloads evaluated in the paper (factorial,
  tcas, replace, ...);
* :mod:`repro.analysis` -- reporting utilities used by the benchmarks.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
