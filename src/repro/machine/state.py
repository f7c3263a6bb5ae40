"""The machine state abstraction (paper Section 5.1).

The machine state is the ``soup`` of mutable processor structures carried
from instruction to instruction: the program counter, the register file, the
memory, and the input and output streams.  The symbolic extension adds the
:class:`~repro.constraints.constraint_map.ConstraintMap` (Section 5.2), a
step counter used by the watchdog bound, and a status describing whether the
state is still running or how it terminated.

Representation.  The symbolic search forks one successor per feasible error
resolution, so :meth:`MachineState.copy` is the hottest operation in the
whole stack.  The register file and the memory are therefore stored
copy-on-write: an immutable *base* snapshot shared between all forks of a
lineage, plus a small private *dirty overlay* holding only the locations
written since the base was taken.  Copying a state copies the overlays
(O(written locations)); when an overlay grows past a threshold it is
*flattened* — folded into a fresh base — so the per-fork cost stays bounded.
Bases are never mutated in place, which is what makes sharing them safe.

Deduplication.  The bounded model checker dedups states by
:meth:`MachineState.fingerprint`.  Instead of materialising an O(state)
tuple per successor, the state maintains two rolling hashes — a commutative
XOR hash over (location, value) pairs updated inside
:meth:`write_register` / :meth:`write_memory`, and a polynomial hash over
the output stream updated in :meth:`append_output` — so a fingerprint is
O(1) to combine.  The returned :class:`Fingerprint` hashes on the combined
value and falls back to a full structural comparison on hash collision, so
dedup decisions are exactly those of a by-content comparison.

Mutation discipline.  All register and memory writes MUST go through
:meth:`write_register` / :meth:`write_memory` (and output appends through
:meth:`append_output`); the overlay, the rolling hashes and the err census
are maintained there.  No module outside this file touches the underlying
storage — ``state.registers`` and ``state.memory`` expose read-only views.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..constraints import ConstraintMap, Location
from ..isa.instructions import NUM_REGISTERS, ZERO_REGISTER
from ..isa.values import ERR, Value, format_value, is_err


class Status(Enum):
    """Lifecycle of a machine state."""

    RUNNING = "running"
    HALTED = "halted"          # normal termination through ``halt``
    EXCEPTION = "exception"    # crash: illegal address/instruction, throw, ...
    DETECTED = "detected"      # a detector fired and stopped the program
    TIMEOUT = "timeout"        # watchdog bound exceeded (hang)


OutputItem = Union[int, str, type(ERR)]


@dataclass
class TraceEntry:
    """One step of an execution trace (used for witnesses in reports)."""

    pc: Value
    text: str

    def __str__(self) -> str:
        return f"[{format_value(self.pc)}] {self.text}"


# Overlay sizes past which copy()/fingerprint() fold the overlay into a new
# base.  Register overlays are bounded by NUM_REGISTERS anyway; the memory
# threshold balances per-fork overlay-copy cost against amortised flatten
# cost (one O(base) fold per _MEMORY_FLATTEN_LIMIT distinct writes).
_REGISTER_FLATTEN_LIMIT = 8
_MEMORY_FLATTEN_LIMIT = 64

#: Sentinel distinguishing "address not defined" from any stored value.
_ABSENT = object()

_HASH_MASK = (1 << 64) - 1


def _register_mix(number: int, value: Value) -> int:
    """Hash contribution of one register cell to the location hash."""
    return hash((0, number, value))


def _memory_mix(address: int, value: Value) -> int:
    """Hash contribution of one memory word to the location hash."""
    return hash((1, address, value))


def _merge_registers(base: Tuple[Value, ...],
                     overlay: Dict[int, Value]) -> Tuple[Value, ...]:
    """The register file described by *base* patched with *overlay*."""
    if not overlay:
        return base
    return tuple(overlay[i] if i in overlay else base[i]
                 for i in range(len(base)))


def _merge_memory(base: Dict[int, Value],
                  overlay: Dict[int, Value]) -> Dict[int, Value]:
    """A private flat copy of the memory described by *base* + *overlay*."""
    merged = dict(base)
    if overlay:
        merged.update(overlay)
    return merged


class CowRegisters:
    """Copy-on-write register file: immutable base tuple + dirty overlay.

    The base is shared (by reference) between every fork of a lineage and is
    never mutated; writes land in the private overlay.  The view is
    read-only — mutation goes through :meth:`MachineState.write_register`.
    """

    __slots__ = ("_base", "_overlay")

    def __init__(self, values: Sequence[Value]) -> None:
        self._base: Tuple[Value, ...] = tuple(values)
        self._overlay: Dict[int, Value] = {}

    def read(self, number: int) -> Value:
        # Stored values are ints or ERR, never None, so .get() doubles as a
        # membership test without a second lookup.
        value = self._overlay.get(number)
        return self._base[number] if value is None else value

    def set(self, number: int, value: Value) -> Value:
        """Write one register, returning the previous value."""
        old = self._overlay.get(number)
        if old is None:
            old = self._base[number]
        self._overlay[number] = value
        return old

    def copy(self) -> "CowRegisters":
        if len(self._overlay) > _REGISTER_FLATTEN_LIMIT:
            self._flatten()
        clone = CowRegisters.__new__(CowRegisters)
        clone._base = self._base
        clone._overlay = dict(self._overlay)
        return clone

    def _flatten(self) -> None:
        """Fold the overlay into a fresh base (the old base is untouched)."""
        self._base = _merge_registers(self._base, self._overlay)
        self._overlay = {}

    def as_tuple(self) -> Tuple[Value, ...]:
        return _merge_registers(self._base, self._overlay)

    # Read-only sequence protocol (register 0 is NOT special-cased here;
    # use MachineState.read_register for architectural semantics).
    def __getitem__(self, number: int) -> Value:
        return self.read(number)

    def __len__(self) -> int:
        return len(self._base)

    def __iter__(self) -> Iterator[Value]:
        return iter(self.as_tuple())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CowRegisters):
            return self.as_tuple() == other.as_tuple()
        return NotImplemented

    def __repr__(self) -> str:
        return f"CowRegisters({list(self.as_tuple())!r})"


class CowMemory:
    """Copy-on-write sparse memory: immutable base dict + dirty overlay.

    Exposes the read-only half of the dict protocol; writes go through
    :meth:`MachineState.write_memory`, which maintains the fingerprint and
    err bookkeeping.
    """

    __slots__ = ("_base", "_overlay", "_size")

    def __init__(self, values: Optional[Dict[int, Value]] = None) -> None:
        self._base: Dict[int, Value] = dict(values) if values else {}
        self._overlay: Dict[int, Value] = {}
        self._size: int = len(self._base)

    def read(self, address: int) -> Value:
        value = self._overlay.get(address)
        if value is not None:
            return value
        return self._base[address]  # raises KeyError for undefined addresses

    def set(self, address: int, value: Value) -> Value:
        """Write one word, returning the previous value (or ``_ABSENT``)."""
        old = self._overlay.get(address)
        if old is None:
            old = self._base.get(address, _ABSENT)
            if old is _ABSENT:
                self._size += 1
        self._overlay[address] = value
        return old

    def copy(self) -> "CowMemory":
        if len(self._overlay) > _MEMORY_FLATTEN_LIMIT:
            self._flatten()
        clone = CowMemory.__new__(CowMemory)
        clone._base = self._base
        clone._overlay = dict(self._overlay)
        clone._size = self._size
        return clone

    def _flatten(self) -> None:
        """Fold the overlay into a fresh base (the old base is untouched)."""
        self._base = _merge_memory(self._base, self._overlay)
        self._overlay = {}

    def to_dict(self) -> Dict[int, Value]:
        """A flattened, private copy of the full address -> value mapping."""
        return _merge_memory(self._base, self._overlay)

    # Read-only mapping protocol.
    def __getitem__(self, address: int) -> Value:
        return self.read(address)

    def get(self, address: int, default=None):
        value = self._overlay.get(address)
        if value is not None:
            return value
        return self._base.get(address, default)

    def __contains__(self, address: int) -> bool:
        return address in self._overlay or address in self._base

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def keys(self):
        if not self._overlay:
            return self._base.keys()
        return self._base.keys() | self._overlay.keys()

    def __iter__(self) -> Iterator[int]:
        return iter(self.keys())

    def items(self) -> Iterator[Tuple[int, Value]]:
        overlay = self._overlay
        yield from overlay.items()
        for address, value in self._base.items():
            if address not in overlay:
                yield address, value

    def values(self) -> Iterator[Value]:
        for _address, value in self.items():
            yield value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CowMemory):
            return self.to_dict() == other.to_dict()
        return NotImplemented

    def __repr__(self) -> str:
        return f"CowMemory({self.to_dict()!r})"


class Fingerprint:
    """A hashable summary of a machine state used for deduplication.

    ``__hash__`` is the pre-combined rolling hash (O(1) to use); ``__eq__``
    compares the hash first and falls back to a full structural comparison,
    so a hash collision can never merge two genuinely different states.  The
    digest snapshots the state's CoW components at creation time — bases by
    reference (they are immutable), overlays by copy, the append-only output
    list by (reference, length) — so later in-place mutation of the state
    (e.g. the concretize handoff finishing it with the fast interpreter)
    cannot corrupt fingerprints already stored in a ``seen`` set.
    """

    __slots__ = ("_hash", "_pc", "_input_pos", "_status", "_exception",
                 "_constraints", "_output", "_out_len", "_regs_base",
                 "_regs_overlay", "_mem_base", "_mem_overlay", "_regs_flat",
                 "_mem_flat")

    def __init__(self, combined_hash: int, state: "MachineState") -> None:
        self._hash = combined_hash
        self._pc = state.pc
        self._input_pos = state.input_pos
        self._status = state.status
        self._exception = state.exception
        self._constraints = state.constraints
        self._output = state._output
        self._out_len = len(state._output)
        registers = state._registers
        memory = state._memory
        self._regs_base = registers._base
        self._regs_overlay = dict(registers._overlay)
        self._mem_base = memory._base
        self._mem_overlay = dict(memory._overlay)
        self._regs_flat: Optional[Tuple[Value, ...]] = None
        self._mem_flat: Optional[Dict[int, Value]] = None

    def _registers_flat(self) -> Tuple[Value, ...]:
        flat = self._regs_flat
        if flat is None:
            flat = _merge_registers(self._regs_base, self._regs_overlay)
            self._regs_flat = flat
        return flat

    def _memory_flat(self) -> Dict[int, Value]:
        flat = self._mem_flat
        if flat is None:
            flat = _merge_memory(self._mem_base, self._mem_overlay)
            self._mem_flat = flat
        return flat

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Fingerprint):
            return NotImplemented
        if self._hash != other._hash:
            return False
        # Hash match: verify structurally, cheapest comparisons first.
        if (self._status is not other._status
                or self._input_pos != other._input_pos
                or self._out_len != other._out_len
                or self._pc != other._pc
                or self._exception != other._exception):
            return False
        if (self._output is not other._output
                and self._output[:self._out_len] != other._output[:other._out_len]):
            return False
        if (self._constraints is not other._constraints
                and self._constraints != other._constraints):
            return False
        # Fast path for the common dedup hit: fingerprints from the same CoW
        # lineage share bases by reference, so equal overlays imply equal
        # stores without materialising the flattened views.  (Unequal
        # overlays do NOT imply unequal stores — an overlay write may repeat
        # the base value — so that case falls back to the full comparison.)
        if self._regs_base is other._regs_base \
                and self._regs_overlay == other._regs_overlay:
            registers_equal = True
        else:
            registers_equal = self._registers_flat() == other._registers_flat()
        if not registers_equal:
            return False
        if self._mem_base is other._mem_base \
                and self._mem_overlay == other._mem_overlay:
            return True
        return self._memory_flat() == other._memory_flat()

    def __repr__(self) -> str:
        return f"<Fingerprint {self._hash:#x} pc={format_value(self._pc)}>"


def _zero_registers_hash() -> int:
    """Location-hash of the all-zero register file (the common initial case)."""
    h = 0
    for number in range(NUM_REGISTERS):
        h ^= _register_mix(number, 0)
    return h


_ZERO_REGISTERS_HASH: Optional[int] = None


#: One shared (immutable) :class:`Location` per register, for the write path.
_REGISTER_LOCATIONS = tuple(Location.register(number)
                            for number in range(NUM_REGISTERS))


class MachineState:
    """A complete machine state.

    The class is mutable for performance (the concrete simulator executes
    millions of instructions), but the symbolic executor always works on
    copies produced by :meth:`copy`, so forked states never alias registers,
    memory or constraints.  Register/memory writes must go through
    :meth:`write_register` / :meth:`write_memory`: they keep the constraint
    map, the rolling fingerprint hashes and the err census consistent.
    """

    __slots__ = ("pc", "_registers", "_memory", "input", "input_pos",
                 "_output", "constraints", "steps", "status", "exception",
                 "detector_id", "trace", "forks", "_loc_hash", "_out_hash",
                 "_err_count", "_reg_err_count")

    def __init__(self,
                 pc: Value = 0,
                 registers: Optional[List[Value]] = None,
                 memory: Optional[Dict[int, Value]] = None,
                 input_values: Sequence[int] = (),
                 output: Optional[List[OutputItem]] = None,
                 constraints: Optional[ConstraintMap] = None) -> None:
        global _ZERO_REGISTERS_HASH
        self.pc: Value = pc
        if registers is not None and len(registers) != NUM_REGISTERS:
            raise ValueError(f"register file must have {NUM_REGISTERS} entries")
        self._registers = CowRegisters(registers if registers is not None
                                       else (0,) * NUM_REGISTERS)
        self._memory = CowMemory(memory)
        self.input: Tuple[int, ...] = tuple(input_values)
        self.input_pos: int = 0
        self._output: List[OutputItem] = list(output) if output else []
        # `is not None`, not truthiness: len() of a ConstraintMap counts
        # tracked locations only, so a map holding nothing but relational
        # constraints (two injected errs compared by a branch — the burst
        # fault model produces these) is falsy and would be dropped here,
        # silently losing constraints across a pickle round-trip.
        self.constraints: ConstraintMap = (constraints if constraints is not None
                                           else ConstraintMap())
        self.steps: int = 0
        self.status: Status = Status.RUNNING
        self.exception: Optional[str] = None
        self.detector_id: Optional[int] = None
        self.trace: Optional[List[TraceEntry]] = None
        self.forks: int = 0
        # Seed the rolling hashes and the err census from the initial content.
        if registers is None:
            if _ZERO_REGISTERS_HASH is None:
                _ZERO_REGISTERS_HASH = _zero_registers_hash()
            loc_hash = _ZERO_REGISTERS_HASH
            err_count = 0
        else:
            loc_hash = 0
            err_count = 0
            for number, value in enumerate(self._registers._base):
                loc_hash ^= _register_mix(number, value)
                if is_err(value):
                    err_count += 1
        #: The register share of the err census (O(1): "does any
        #: register hold err?"), kept by write_register.
        self._reg_err_count: int = err_count
        for address, value in self._memory._base.items():
            loc_hash ^= _memory_mix(address, value)
            if is_err(value):
                err_count += 1
        self._loc_hash: int = loc_hash
        self._err_count: int = err_count
        out_hash = 0
        for item in self._output:
            out_hash = (out_hash * 1000003 + hash(item)) & _HASH_MASK
        self._out_hash: int = out_hash

    # ----------------------------------------------------------- state views

    @property
    def registers(self) -> CowRegisters:
        """Read-only view of the register file (write via write_register)."""
        return self._registers

    @property
    def memory(self) -> CowMemory:
        """Read-only view of the memory (write via write_memory)."""
        return self._memory

    @property
    def output(self) -> List[OutputItem]:
        """The output stream; append only via :meth:`append_output`."""
        return self._output

    # ------------------------------------------------------------------ copies

    def copy(self) -> "MachineState":
        """An O(written-locations) fork: overlays copied, bases shared."""
        clone = MachineState.__new__(MachineState)
        clone.pc = self.pc
        clone._registers = self._registers.copy()
        clone._memory = self._memory.copy()
        clone.input = self.input
        clone.input_pos = self.input_pos
        clone._output = self._output.copy() if self._output else []
        clone.constraints = self.constraints  # immutable-by-convention
        clone.steps = self.steps
        clone.status = self.status
        clone.exception = self.exception
        clone.detector_id = self.detector_id
        # The trace is lazily created: forks of an untraced state (the
        # common case — record_trace off) share the None sentinel for free.
        clone.trace = list(self.trace) if self.trace else None
        clone.forks = self.forks
        clone._loc_hash = self._loc_hash
        clone._out_hash = self._out_hash
        clone._err_count = self._err_count
        clone._reg_err_count = self._reg_err_count
        return clone

    def flatten(self) -> None:
        """Fold both overlays into fresh bases; nothing observable changes.

        Later copies then share one flat base instead of each copying the
        overlay (a copy flattens only past the overlay limits).
        """
        if self._registers._overlay:
            self._registers._flatten()
        if self._memory._overlay:
            self._memory._flatten()

    def adopt_terminal(self, terminal: "MachineState", steps: int) -> None:
        """Finish this running state as *terminal*, reached at *steps*.

        The concrete interpreter's join: when this state matches a recorded
        state of a finished err-free run, its future is that run's, so it
        takes over every field the run produced — pc, stores, input
        position, output, constraints, termination, both rolling hashes and
        the err census — with the step count shifted to its own timeline.
        Stores are CoW copies (bases shared, overlays copied), so the
        terminal stays untouched.  ``input``, ``trace`` and ``forks`` are
        the caller's: the run that joins holds the same input, and the
        concrete interpreter changes neither of the other two.
        """
        self.pc = terminal.pc
        self._registers = terminal._registers.copy()
        self._memory = terminal._memory.copy()
        self.input_pos = terminal.input_pos
        self._output = terminal._output.copy()
        self.constraints = terminal.constraints
        self.steps = steps
        self.status = terminal.status
        self.exception = terminal.exception
        self.detector_id = terminal.detector_id
        self._loc_hash = terminal._loc_hash
        self._out_hash = terminal._out_hash
        self._err_count = terminal._err_count
        self._reg_err_count = terminal._reg_err_count

    # ---------------------------------------------------------------- pickling

    def __getstate__(self):
        # Flatten the CoW structure: a pickled state is self-contained, so
        # broker round-trips cannot alias bases across processes.
        return {
            "pc": self.pc,
            "registers": self._registers.as_tuple(),
            "memory": self._memory.to_dict(),
            "input": self.input,
            "input_pos": self.input_pos,
            "output": self._output,
            "constraints": self.constraints,
            "steps": self.steps,
            "status": self.status,
            "exception": self.exception,
            "detector_id": self.detector_id,
            "trace": self.trace,
            "forks": self.forks,
        }

    def __setstate__(self, payload) -> None:
        # Rebuild the rolling hashes from scratch: hash() of strings (ERR,
        # exception text, prints output) is salted per process, so the
        # incremental values do not transfer between processes.
        self.__init__(pc=payload["pc"],
                      registers=list(payload["registers"]),
                      memory=payload["memory"],
                      input_values=payload["input"],
                      output=payload["output"],
                      constraints=payload["constraints"])
        self.input_pos = payload["input_pos"]
        self.steps = payload["steps"]
        self.status = payload["status"]
        self.exception = payload["exception"]
        self.detector_id = payload["detector_id"]
        self.trace = payload["trace"]
        self.forks = payload["forks"]

    # --------------------------------------------------------------- registers

    def read_register(self, number: int) -> Value:
        """Read a register; register 0 is hard-wired to zero."""
        if number == ZERO_REGISTER:
            return 0
        return self._registers.read(number)

    def write_register(self, number: int, value: Value,
                       transfer_from: Optional[Location] = None) -> None:
        """Write a register and keep the constraint map consistent.

        Writes to register 0 are discarded.  Writing a concrete value clears
        any constraints previously attached to the register; writing ``err``
        leaves the destination unconstrained unless *transfer_from* names the
        location the value was copied from verbatim (``mov``/``ldi``), in
        which case its constraints are carried over.
        """
        if number == ZERO_REGISTER:
            return
        old = self._registers.set(number, value)
        # hash((0, number, v)) == _register_mix(number, v), inlined: this is
        # the hottest line of the write path.
        self._loc_hash ^= hash((0, number, old)) ^ hash((0, number, value))
        if is_err(old):
            if not is_err(value):
                self._err_count -= 1
                self._reg_err_count -= 1
        elif is_err(value):
            self._err_count += 1
            self._reg_err_count += 1
        constraints = self.constraints
        if constraints.empty and transfer_from is None:
            return  # nothing to clear and nothing to carry over
        destination = _REGISTER_LOCATIONS[number]
        if is_err(value) and transfer_from is not None:
            self.constraints = constraints.without(destination) \
                                          .transfer(transfer_from, destination)
        else:
            self.constraints = constraints.without(destination)

    # ------------------------------------------------------------------ memory

    def is_defined_address(self, address: int) -> bool:
        return address in self._memory

    def read_memory(self, address: int) -> Value:
        return self._memory.read(address)

    def write_memory(self, address: int, value: Value,
                     transfer_from: Optional[Location] = None) -> None:
        """Write a memory word, mirroring :meth:`write_register` for constraints."""
        old = self._memory.set(address, value)
        if old is _ABSENT:
            self._loc_hash ^= hash((1, address, value))
            if is_err(value):
                self._err_count += 1
        else:
            self._loc_hash ^= hash((1, address, old)) ^ hash((1, address, value))
            if is_err(old):
                if not is_err(value):
                    self._err_count -= 1
            elif is_err(value):
                self._err_count += 1
        constraints = self.constraints
        if constraints.empty and transfer_from is None:
            return
        destination = Location.memory(address)
        if is_err(value) and transfer_from is not None:
            self.constraints = constraints.without(destination) \
                                          .transfer(transfer_from, destination)
        else:
            self.constraints = constraints.without(destination)

    # ------------------------------------------------------------------- input

    def has_input(self) -> bool:
        return self.input_pos < len(self.input)

    def next_input(self) -> int:
        value = self.input[self.input_pos]
        self.input_pos += 1
        return value

    # ------------------------------------------------------------------ output

    def append_output(self, item: OutputItem) -> None:
        self._output.append(item)
        self._out_hash = (self._out_hash * 1000003 + hash(item)) & _HASH_MASK

    def output_values(self) -> Tuple[OutputItem, ...]:
        return tuple(self._output)

    def printed_integers(self) -> Tuple[Value, ...]:
        """Only the numeric items printed by ``print`` (skipping ``prints`` text)."""
        return tuple(item for item in self._output
                     if is_err(item) or isinstance(item, int))

    def output_contains_err(self) -> bool:
        return any(is_err(item) for item in self._output)

    # -------------------------------------------------------------- termination

    def halt(self) -> None:
        self.status = Status.HALTED

    def throw(self, message: str) -> None:
        self.status = Status.EXCEPTION
        self.exception = message

    def detect(self, detector_id: int, message: str) -> None:
        self.status = Status.DETECTED
        self.detector_id = detector_id
        self.exception = message

    def time_out(self, message: str) -> None:
        self.status = Status.TIMEOUT
        self.exception = message

    @property
    def is_running(self) -> bool:
        return self.status is Status.RUNNING

    @property
    def crashed(self) -> bool:
        return self.status is Status.EXCEPTION

    @property
    def hung(self) -> bool:
        return self.status is Status.TIMEOUT

    @property
    def detected(self) -> bool:
        return self.status is Status.DETECTED

    # ------------------------------------------------------------------ tracing

    def record(self, text: str) -> None:
        self.add_trace_entry(TraceEntry(self.pc, text))

    def add_trace_entry(self, entry: TraceEntry) -> None:
        if self.trace is None:
            self.trace = []
        self.trace.append(entry)

    # ----------------------------------------------------------------- hashing

    def fingerprint(self) -> Fingerprint:
        """A hashable summary used by the model checker for state deduplication.

        Two states with an equal fingerprint have the same observable future
        behaviour, so only one of them needs to be explored further.  The
        combined hash is O(1) to produce (the per-location and output hashes
        are maintained incrementally by the write API); equality falls back
        to a structural comparison, so collisions cannot merge distinct
        states.
        """
        registers = self._registers
        memory = self._memory
        if len(registers._overlay) > _REGISTER_FLATTEN_LIMIT:
            registers._flatten()
        if len(memory._overlay) > _MEMORY_FLATTEN_LIMIT:
            memory._flatten()
        combined = hash((self.pc, self._loc_hash, self._out_hash,
                         len(self._output), self.input_pos, self.constraints,
                         self.status, self.exception))
        return Fingerprint(combined, self)

    # ------------------------------------------------------------------ display

    def describe(self) -> str:
        lines = [
            f"pc      = {format_value(self.pc)}",
            f"status  = {self.status.value}"
            + (f" ({self.exception})" if self.exception else ""),
            f"steps   = {self.steps}",
            "registers:",
        ]
        interesting = [(i, v) for i, v in enumerate(self._registers.as_tuple())
                       if is_err(v) or v != 0]
        lines.append("  " + "  ".join(f"${i}={format_value(v)}" for i, v in interesting)
                     if interesting else "  (all zero)")
        if self._memory:
            rendered = ", ".join(f"{addr}:{format_value(val)}"
                                 for addr, val in sorted(self._memory.items())[:24])
            suffix = " ..." if len(self._memory) > 24 else ""
            lines.append(f"memory  = {{{rendered}{suffix}}}")
        lines.append("output  = [" + ", ".join(
            repr(item) if isinstance(item, str) else format_value(item)
            for item in self._output) + "]")
        lines.append("constraints:")
        lines.append(self.constraints.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<MachineState pc={format_value(self.pc)} status={self.status.value} "
                f"steps={self.steps} outputs={len(self._output)}>")


def state_contains_err(state: MachineState) -> bool:
    """True if the symbolic ``err`` value is present anywhere in the state.

    A state with no ``err`` left (every corrupted location was overwritten)
    behaves deterministically from now on, so the model checker can finish it
    with the fast concrete interpreter instead of step-by-step copies.  The
    census is maintained incrementally by the write API, so this is O(1).
    """
    return state._err_count > 0 or is_err(state.pc)


def recompute_incremental_state(state: MachineState) -> Tuple[int, int, int]:
    """Recompute (location hash, output hash, err count) from full content.

    Test oracle for the incremental bookkeeping: after any interleaving of
    writes, copies and flattens these must equal ``state._loc_hash``,
    ``state._out_hash`` and ``state._err_count``.
    """
    loc_hash = 0
    err_count = 0
    for number, value in enumerate(state._registers.as_tuple()):
        loc_hash ^= _register_mix(number, value)
        if is_err(value):
            err_count += 1
    for address, value in state._memory.to_dict().items():
        loc_hash ^= _memory_mix(address, value)
        if is_err(value):
            err_count += 1
    out_hash = 0
    for item in state._output:
        out_hash = (out_hash * 1000003 + hash(item)) & _HASH_MASK
    return loc_hash, out_hash, err_count


def initial_state(input_values: Sequence[int] = (),
                  memory: Optional[Dict[int, Value]] = None,
                  entry_point: int = 0) -> MachineState:
    """Build the initial machine state for running a program.

    *memory* provides the loader-initialised data segment (the paper assumes
    the loader initialises every location before its first use).
    """
    return MachineState(pc=entry_point, memory=memory, input_values=input_values)
