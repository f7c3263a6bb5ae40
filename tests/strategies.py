"""Random programs and machine states shared by the differential suites.

Hypothesis strategies for small valid programs over the whole instruction
set (loops, calls, I/O, ``check`` sites, throws) and for machine inputs
with ``err`` values in registers and memory, plus the helpers that build a
state from those inputs and summarise one for comparison.  Used by the
decode-equivalence suite and by the cycle-cut oracle.  The carrier
round-trip suite also draws arbitrary machine states and fault specs
(:func:`_machine_state`, :func:`_fault_spec`).  The search suites draw
mostly straight-line programs with sparse labels (:func:`_sparse_labels`),
where err lineages chain between merge points, and initial states from
:data:`_SEARCH_STATES`.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.constraints import (ComparisonOp, Constraint, ConstraintMap,
                               ConstraintSet, Location, RelationalConstraint)
from repro.detectors import DetectorSet
from repro.faults import BitFlipFaultSpec, BurstFaultSpec, FaultSpec
from repro.isa.instructions import (INSTRUCTION_SET, NUM_REGISTERS,
                                    SHIFT_IMMEDIATES, make)
from repro.isa.program import Program
from repro.isa.values import ERR
from repro.machine.state import (_MEMORY_FLATTEN_LIMIT,
                                 _REGISTER_FLATTEN_LIMIT, MachineState,
                                 initial_state)

# Small pools keep the generated programs interacting: loops form, registers
# get read after being written, memory addresses collide.
_REGS = st.integers(0, 5)
_IMMS = st.integers(-4, 7)
_ADDRS = st.integers(0, 7)

_ARITH = ("add", "sub", "mult", "div", "mod", "addi", "subi", "multi",
          "divi", "modi", "ori", "andi", "xori", "slli", "srli")
#: Shift counts: the ISA rejects a negative one when it is built.
_SHIFTS = st.integers(0, 7)
_COMPARE = ("seteq", "setne", "setgt", "setlt", "setge", "setle",
            "seteqi", "setnei", "setgti", "setlti", "setgei", "setlei")

#: The detector every generated ``check 1`` runs: it reads two registers
#: and a memory cell, so an ``err`` in any of them makes its outcome fork.
_DETECTORS = DetectorSet.parse("det(1, $(2), >=, ($(3)) + *(4))")


def _label_for(target: int) -> str:
    return f"L{target}"


def _third(opcode: str):
    """The third operand of an arithmetic or compare *opcode*."""
    if opcode in SHIFT_IMMEDIATES:
        return _SHIFTS
    return _IMMS if INSTRUCTION_SET[opcode].signature[2].value == "imm" \
        else _REGS


@st.composite
def _instruction(draw, n_labels: int):
    """One random valid instruction (labels resolved against L0..L{n-1})."""
    kind = draw(st.sampled_from(
        ("arith", "compare", "mov", "li", "ldi", "sti", "branch", "jmp",
         "jal", "jr", "read", "print", "prints", "nop", "check", "throw")))
    label = _label_for(draw(st.integers(0, n_labels - 1)))
    if kind == "arith":
        opcode = draw(st.sampled_from(_ARITH))
    elif kind == "compare":
        opcode = draw(st.sampled_from(_COMPARE))
    else:
        opcode = kind
    if kind in ("arith", "compare"):
        return make(opcode, draw(_REGS), draw(_REGS), draw(_third(opcode)))
    if kind == "mov":
        return make("mov", draw(_REGS), draw(_REGS))
    if kind == "li":
        return make("li", draw(_REGS), draw(_IMMS))
    if kind in ("ldi", "sti"):
        return make(kind, draw(_REGS), draw(_REGS), draw(_ADDRS))
    if kind == "branch":
        return make(draw(st.sampled_from(("beq", "bne"))), draw(_REGS),
                    draw(_IMMS), label)
    if kind in ("jmp", "jal"):
        return make(kind, label)
    if kind == "jr":
        return make("jr", draw(_REGS))
    if kind == "read":
        return make("read", draw(_REGS))
    if kind == "print":
        return make("print", draw(_REGS))
    if kind == "prints":
        return make("prints", "x")
    if kind == "check":
        return make("check", 1)
    if kind == "throw":
        return make("throw", "boom")
    return make("nop")


@st.composite
def _program(draw):
    """A random valid program, halt-terminated, every address labelled."""
    length = draw(st.integers(1, 12))
    n_labels = length + 1  # labels may also point at the final halt
    body = [draw(_instruction(n_labels)) for _ in range(length)]
    body.append(make("halt"))
    labels = {_label_for(address): address for address in range(n_labels)}
    return Program(code=tuple(body), labels=labels, name="random")


@st.composite
def _machine_inputs(draw):
    """Input tape, initial memory and (possibly erroneous) register writes."""
    input_values = draw(st.lists(st.integers(-3, 9), max_size=4))
    memory = {address: draw(st.one_of(st.just(ERR), st.integers(-3, 9)))
              for address in draw(st.lists(_ADDRS, max_size=4,
                                           unique=True))}
    corruptions = draw(st.lists(
        st.tuples(st.integers(1, 5),
                  st.one_of(st.just(ERR), st.integers(-3, 9))),
        max_size=2))
    return input_values, memory, corruptions


def _fresh_state(inputs):
    input_values, memory, corruptions = inputs
    state = initial_state(input_values=input_values, memory=dict(memory))
    for register, value in corruptions:
        state.write_register(register, value)
    return state


def _state_summary(state):
    return (state.pc, state.steps, state.status, state.exception,
            state.input_pos, state.output_values(), state.fingerprint(),
            state.forks, state.constraints)


_VALUES = st.one_of(st.just(ERR), st.integers(-9, 9))
_LOCATIONS = st.one_of(
    st.builds(Location.register, st.integers(1, NUM_REGISTERS - 1)),
    st.builds(Location.memory, st.integers(0, 90)))
_OPS = st.sampled_from(list(ComparisonOp))


@st.composite
def _constraint_map(draw):
    """Any constraint map: empty, per-location, relational-only or both."""
    sets = draw(st.dictionaries(
        _LOCATIONS,
        st.lists(st.builds(Constraint, _OPS, st.integers(-5, 5)),
                 min_size=1, max_size=3).map(ConstraintSet().add_all),
        max_size=3))
    relational = draw(st.frozensets(
        st.builds(RelationalConstraint, _LOCATIONS, _OPS, _LOCATIONS)
        .map(RelationalConstraint.normalized), max_size=3))
    return ConstraintMap(sets, relational)


@st.composite
def _machine_state(draw):
    """An arbitrary machine state.

    Register and memory writes land in copy-on-write overlays, some deeper
    than the flatten thresholds, and a fork part-way makes the later
    writes sit on a shared base.  ``err`` may sit in the pc, registers,
    memory and output; the constraint map is any :func:`_constraint_map`;
    the status is running or any terminal one.
    """
    state = initial_state(
        input_values=draw(st.lists(st.integers(-3, 9), max_size=4)),
        memory=draw(st.dictionaries(st.integers(0, 90), _VALUES,
                                    max_size=6)))
    registers = draw(st.sampled_from((0, 3, _REGISTER_FLATTEN_LIMIT + 4)))
    words = draw(st.sampled_from((0, 5, _MEMORY_FLATTEN_LIMIT + 4)))
    writes = ([(MachineState.write_register, 1 + number)
               for number in range(registers)]
              + [(MachineState.write_memory, 10 + address)
                 for address in range(words)])
    values = draw(st.lists(_VALUES, min_size=len(writes),
                           max_size=len(writes)))
    fork_at = draw(st.integers(0, len(writes)))
    for position, ((write, where), value) in enumerate(zip(writes, values)):
        if position == fork_at:
            state = state.copy()
        write(state, where, value)
    for item in draw(st.lists(st.one_of(_VALUES, st.just("text")),
                              max_size=4)):
        state.append_output(item)
    state.input_pos = draw(st.integers(0, len(state.input)))
    state.pc = draw(st.one_of(st.just(ERR), st.integers(0, 40)))
    state.steps = draw(st.integers(0, 10 ** 6))
    state.constraints = draw(_constraint_map())
    finish = draw(st.sampled_from(
        ("running", "halt", "throw", "detect", "time_out")))
    if finish == "halt":
        state.halt()
    elif finish == "throw":
        state.throw("boom")
    elif finish == "detect":
        state.detect(1, "detector 1 fired")
    elif finish == "time_out":
        state.time_out("watchdog")
    return state


@st.composite
def _straight(draw):
    """A fusible instruction, or ``check 2``, which names no detector of
    ``_DETECTORS`` and raises when it is stepped."""
    kind = draw(st.sampled_from(("arith", "compare", "li", "ldi", "sti",
                                 "print", "nop", "check")))
    if kind in ("arith", "compare"):
        opcode = draw(st.sampled_from(_ARITH if kind == "arith" else _COMPARE))
        return make(opcode, draw(_REGS), draw(_REGS), draw(_third(opcode)))
    if kind == "li":
        return make("li", draw(_REGS), draw(_IMMS))
    if kind in ("ldi", "sti"):
        return make(kind, draw(_REGS), draw(_REGS), draw(_ADDRS))
    if kind == "print":
        return make("print", draw(_REGS))
    if kind == "check":
        return make("check", 2)
    return make("nop")


@st.composite
def _sparse_labels(draw):
    """A random program, mostly straight-line code, keeping the labels its
    instructions name and each other label at random: fall-throughs onto
    unlabelled pcs chain, and runs of fusible code are blocks."""
    program = draw(_program())
    code = tuple(draw(st.one_of(st.just(instruction), _straight()))
                 for instruction in program.code[:-1]) + program.code[-1:]
    named = {operand for instruction in code
             for operand in instruction.operands if isinstance(operand, str)}
    labels = {name: address for name, address in program.labels.items()
              if name in named or draw(st.integers(0, 3)) == 0}
    return Program(code=code, labels=labels, name=program.name)


def _memory_errs(inputs):
    """*inputs* with ``err`` only in memory: chains may run blocks."""
    input_values, memory, _ = inputs
    return _fresh_state((input_values, {**memory, 0: ERR}, []))


#: Initial search states: fresh ones with ``err`` anywhere, with ``err``
#: only in memory, or arbitrary ones (any status, any constraint map).
_SEARCH_STATES = st.one_of(_machine_inputs().map(_fresh_state),
                           _machine_inputs().map(_memory_errs),
                           _machine_state())


@st.composite
def _fault_spec(draw):
    """A single, burst (2-3 ordered components) or bit-flip fault spec."""
    pc = draw(st.integers(0, 40))
    occurrence = draw(st.integers(1, 3))

    def single():
        return FaultSpec(breakpoint_pc=pc, target=draw(_LOCATIONS),
                         occurrence=occurrence, value=draw(_VALUES),
                         model="register")

    kind = draw(st.sampled_from(("single", "burst", "bitflip")))
    if kind == "single":
        return single()
    if kind == "bitflip":
        return BitFlipFaultSpec(breakpoint_pc=pc, target=draw(_LOCATIONS),
                                occurrence=occurrence, model="bitflip",
                                bit=draw(st.integers(0, 31)))
    components = tuple(single() for _ in range(draw(st.integers(2, 3))))
    return BurstFaultSpec(breakpoint_pc=pc, target=components[0].target,
                          occurrence=occurrence, model="burst",
                          components=components)
