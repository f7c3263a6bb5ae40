"""Pre-decoding of a :class:`~repro.isa.program.Program`.

Both interpreters used to re-derive everything from instruction *strings* on
every step: opcode comparisons, ``IMMEDIATE_ALIASES`` lookups,
``compare_base_opcode`` suffix stripping, label resolution and
``spec.signature`` inspection.  This module performs all of that work exactly
once per program and caches the result, so the hot loops become
``handlers[pc](state, decoded[pc])`` with zero string work:

* :class:`DecodedInstruction` — a dense record per code address: resolved
  register indices, pre-parsed immediates, the normalised binary operator,
  the pre-computed :class:`ComparisonOp`, pre-resolved branch/jump/call
  targets, the static register read set, and the pre-rendered assembly text
  used by traces and error messages.

* per-address *concrete ops* — specialised Python functions (one per
  instruction) implementing the exact semantics of the string-dispatch
  ``reference_step`` of the test suite for that single instruction.  They
  are the err-free semantics of single-stepping: ``run_concrete`` runs them
  where it enters no superblock, and so does the symbolic ``Executor`` for
  every instruction whose read set holds no ``err``.

* *superblocks* — runs of straight-line, non-forking instructions fused into
  a single generated function.  ``run_concrete`` enters a superblock when the
  program counter sits on a block leader and the step budget allows the whole
  block; faults, detectors (``check``), control transfers and interpreter
  breakpoints fall back to the single-instruction ops.  The symbolic
  search's chains (``Executor.chain``) enter them too, where no label
  lies inside or at the end of the block (``chain_block_lens``) and no
  register holds ``err``.

  One emitter, ``_emit_block``, writes both: an op is the one-instruction
  range ``[pc, pc + 1)``, which may also be a branch, jump, call, ``jr``,
  ``check``, ``halt`` or ``throw``.  A range keeps its registers in Python
  locals: each source register is read from the state once, at its first
  use, and each destination is written back once through
  ``write_register`` at every exit — the end of the range, or a
  mid-range ``err`` read, illegal address, divide by zero or exhausted
  input, before that exit takes effect.  ``steps`` and ``pc`` move once
  per exit, so the state any exit leaves (fingerprint, err census,
  constraint map, raised message) is bit-identical to single-stepping's.

  Ops and superblocks are generated on demand: each table slot starts as
  a stub that renders its function the first time it runs and then
  replaces itself, so a process pays generation only for the code it
  actually executes (a replace campaign runs about a tenth of its pcs).
  The generated code is position-independent — only branch, jump and
  call targets are absolute — so equal ranges at different pcs render one
  body, which is ``exec``-compiled once per decoded program and bound to
  each of its slots.

* memoised static *control-fork target* sets for every
  ``control_fork_domain`` setting, replacing the per-fork
  ``label_addresses()`` sort.

* ``labelled`` — one flag per pc marking the label addresses, the points
  where a fall-through can meet a jump or branch and search states can
  merge; the model checker fingerprints a fall-through state only there.
  ``chain_block_lens`` — per pc, the length of the superblock there if no
  pc it falls through to carries a label, else 0: the blocks a search
  chain may run in one call.

All generated code mutates state exclusively through the CoW write API
(``write_register`` / ``write_memory`` / ``append_output``), preserving the
incremental fingerprint and err-census bookkeeping; generated loads read
the memory overlay and base directly.

The cache is keyed by program identity with weakref eviction and is rebuilt
inside worker processes — decoded tables are never pickled (generated
functions could not be).  Building the tables compiles nothing, so the
rebuild is cheap and each worker compiles only what it executes.
"""

from __future__ import annotations

import weakref
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs as _obs
from ..constraints import ComparisonOp
from ..detectors import execute_detector
from ..errors.propagation import (IMMEDIATE_ALIASES, _concrete_div,
                                  _concrete_mod)
from ..isa.instructions import (Category, Instruction, OperandKind,
                                RETURN_ADDRESS_REGISTER, ZERO_REGISTER,
                                compare_base_opcode)
from ..isa.program import Program
from ..isa.values import ERR
from .exceptions import (DIVIDE_BY_ZERO, ILLEGAL_ADDRESS, ILLEGAL_INSTRUCTION,
                         INPUT_EXHAUSTED, MachineModelError,
                         SymbolicValueEncountered, detector_exception)

#: Comparison operator implemented by each comparison-setter opcode.
COMPARE_OPS: Dict[str, ComparisonOp] = {
    "seteq": ComparisonOp.EQ, "setne": ComparisonOp.NE,
    "setgt": ComparisonOp.GT, "setlt": ComparisonOp.LT,
    "setge": ComparisonOp.GE, "setle": ComparisonOp.LE,
}

#: Python infix spelling of each binary operator with one (add / sub / ...);
#: div and mod use the C-style truncating helpers instead.
_INFIX_OPS = {
    "add": "+", "sub": "-", "mult": "*", "and": "&", "or": "|",
    "xor": "^", "sll": "<<", "srl": ">>",
}

_COMPARE_INFIX = {
    ComparisonOp.EQ: "==", ComparisonOp.NE: "!=", ComparisonOp.GT: ">",
    ComparisonOp.LT: "<", ComparisonOp.GE: ">=", ComparisonOp.LE: "<=",
}

#: Categories that a superblock may fuse: deterministic on concrete state,
#: no forking, fall through to pc + 1.  Control transfers, ``check`` and the
#: terminating specials stay single-stepped.
STRAIGHTLINE_CATEGORIES = frozenset((
    Category.ARITHMETIC, Category.COMPARE, Category.MOVE, Category.LOAD,
    Category.STORE, Category.IO_READ, Category.IO_WRITE,
))

#: Maximum number of instructions fused into one superblock.
SUPERBLOCK_LIMIT = 32


def is_straightline(instruction: Instruction) -> bool:
    """True if *instruction* may be fused into a superblock."""
    category = instruction.category
    if category in STRAIGHTLINE_CATEGORIES:
        return True
    return category is Category.SPECIAL and instruction.opcode == "nop"


class DecodedInstruction:
    """Fully decoded form of one instruction at a fixed code address.

    The generic operand slots ``a`` / ``b`` / ``c`` are category-specific:

    ========== ============= ============ ===========================
    category    a             b            c
    ========== ============= ============ ===========================
    arithmetic  rd            rs           third (reg index or imm)
    compare     rd            rs           third (reg index or imm)
    move        rd            src/imm      --
    load        rt            rs           offset
    store       rt            rs           offset
    branch      rs            --           immediate
    jump/call   --            --           --
    jr          rs            --           --
    io read     rd            --           --
    io write    operand       --           --
    check       detector id   --           --
    special     --            message      --
    ========== ============= ============ ===========================

    ``reads`` is the static register read set: the source registers of
    the instruction, ``$0`` excluded (it cannot hold ``err``).  When none
    of them holds ``err``, the symbolic ``Executor`` runs the instruction
    through its concrete op; only the rest reach the symbolic handlers.
    It is ``None`` for ``check`` (a detector reads whatever its expression
    names) and for unhandled specials, which always take the symbolic
    handlers.

    ``fork_base`` is the register whose ``err`` makes the instruction fork
    over an address domain — the base of a load or store, the target of a
    ``jr`` — and ``None`` for every other instruction.
    """

    __slots__ = ("pc", "next_pc", "instruction", "opcode", "category", "text",
                 "source", "a", "b", "c", "third_is_reg", "operator",
                 "divmod", "compare_op", "target", "special",
                 "is_mov", "is_print", "reads", "fork_base")

    def __init__(self, pc: int, instruction: Instruction,
                 program: Program) -> None:
        self.pc = pc
        self.next_pc = pc + 1
        self.instruction = instruction
        self.opcode = instruction.opcode
        self.category = instruction.category
        self.text = instruction.render()
        self.source = program.source_lines.get(pc, self.text)
        self.a: object = None
        self.b: object = None
        self.c: object = None
        self.third_is_reg = False
        self.operator: Optional[str] = None
        self.divmod = False
        self.compare_op: Optional[ComparisonOp] = None
        self.target: Optional[int] = None
        self.special: Optional[str] = None
        self.is_mov = False
        self.is_print = False

        operands = instruction.operands
        category = self.category
        if category is Category.ARITHMETIC:
            self.a, self.b, self.c = operands
            self.third_is_reg = \
                instruction.spec.signature[2] is OperandKind.REGISTER
            self.operator = IMMEDIATE_ALIASES.get(self.opcode, self.opcode)
            self.divmod = self.operator in ("div", "mod")
        elif category is Category.COMPARE:
            self.a, self.b, self.c = operands
            self.third_is_reg = \
                instruction.spec.signature[2] is OperandKind.REGISTER
            self.compare_op = COMPARE_OPS[compare_base_opcode(self.opcode)]
        elif category is Category.MOVE:
            self.a, self.b = operands
            self.is_mov = self.opcode == "mov"
        elif category in (Category.LOAD, Category.STORE):
            self.a, self.b, self.c = operands
        elif category is Category.BRANCH:
            self.a, self.c, label = operands
            self.target = program.resolve(label)
            self.compare_op = ComparisonOp.EQ if self.opcode == "beq" \
                else ComparisonOp.NE
        elif category in (Category.JUMP, Category.CALL):
            self.target = program.resolve(operands[0])
        elif category in (Category.JUMP_REGISTER, Category.IO_READ,
                          Category.CHECK):
            self.a = operands[0]
        elif category is Category.IO_WRITE:
            self.a = operands[0]
            self.is_print = self.opcode == "print"
        elif category is Category.SPECIAL:
            if self.opcode in ("halt", "nop", "throw"):
                self.special = self.opcode
                if self.opcode == "throw":
                    self.b = operands[0]
            else:
                self.special = "unhandled"
                self.b = (f"unhandled special opcode {self.opcode} "
                          f"at pc {pc} ({self.source})")
        self.fork_base: Optional[int] = None
        if category in (Category.LOAD, Category.STORE):
            self.fork_base = self.b
        elif category is Category.JUMP_REGISTER:
            self.fork_base = self.a
        self.reads: Optional[Tuple[int, ...]] = None
        if category is not Category.CHECK and self.special != "unhandled":
            self.reads = tuple([operands[i] for i in instruction.spec.reads
                                if operands[i] != ZERO_REGISTER])


# --------------------------------------------------------------------------
# Generated code: one emitter for ops and superblocks.
#
# ``_emit_block`` renders ``entries[start:end]`` as the body of one function
# over a local ``state`` (and ``detectors``, for ``check``).  A superblock is
# a range of straight-line instructions; the single-instruction op at *pc*
# is the range ``[pc, pc + 1)``, whose one instruction may also be one that
# ends a range: a branch, jump, call, ``jr``, ``check``, ``halt``, ``throw``
# or an unhandled special.  The statements replicate the string-dispatch
# ``reference_step`` of the test suite exactly: the step of an exit is
# counted before the exit takes effect, a raised
# ``SymbolicValueEncountered`` leaves the pc on the faulting instruction,
# store reads the address register before the value register, and every
# error message is byte-identical.
#
# The code is position-independent: a range is always entered with
# ``state.pc == start``, so an exit moves the pc by an offset, and only
# branch, jump and call targets are absolute.  Equal instruction ranges at
# different pcs render the same body, which ``_lazy`` compiles once per
# decoded program.
# --------------------------------------------------------------------------

def _emit_block(entries: Sequence[DecodedInstruction], start: int,
                end: int) -> List[str]:
    """Source lines running ``entries[start:end]`` on ``state``.

    Registers live in locals ``r<n>`` for the whole range: a source register
    is read from the state once, at its first use, with the ``err`` check;
    a destination is written back once through ``write_register``, at the
    end and before every mid-range exit takes effect.  Each exit adds the
    steps it ran to ``state.steps`` once and moves ``state.pc`` once, to
    what single-stepping leaves: the faulting instruction's step counted
    and the pc on it.  Loads read the memory overlay and base directly;
    stores, input and output go through the state API in program order.
    Every register and memory write still passes the write API, so the XOR
    location hash, the err census and the constraint map end equal to
    single-stepping's.  (A shift raises no exit: its count is an immediate,
    and building the instruction rejects a negative one.)  Only the last
    instruction of a range may end it other than by falling through.
    """
    lines: List[str] = []
    held = set()                # registers with a local
    dirty: List[int] = []       # registers written, in first-write order
    reads = loads = False       # whether the body reads registers / memory

    def count(pc: int, pad: str) -> List[str]:
        """Write back and count the steps up to and including *pc*."""
        return ([f"{pad}state.write_register({n}, r{n})" for n in dirty]
                + [f"{pad}state.steps += {pc - start + 1}"])

    def stay(pc: int, pad: str) -> List[str]:
        """Move the pc from *start* onto *pc*."""
        return [f"{pad}state.pc += {pc - start}"] if pc > start else []

    def leave(pc: int, pad: str, *tail: str) -> List[str]:
        """Count, stay on *pc*, then *tail*."""
        return (count(pc, pad) + stay(pc, pad)
                + [pad + statement for statement in tail])

    def read(pc: int, number: int) -> str:
        nonlocal reads
        if number == 0:
            return "0"
        if number not in held:
            held.add(number)
            reads = True
            lines.extend([f"    r{number} = rov.get({number})",
                          f"    if r{number} is None:",
                          f"        r{number} = rbase[{number}]",
                          f"    if r{number} is _ERR:",
                          *leave(pc, "        ", "raise _SVE('register "
                                 f"${number} is err')")])
        return f"r{number}"

    def write(number: int, expr: str) -> None:
        if number == 0:
            return  # writes to $0 are discarded
        lines.append(f"    r{number} = {expr}")
        held.add(number)
        if number not in dirty:
            dirty.append(number)

    def done(tail: List[str]) -> List[str]:
        """The body: the state views it reads, *lines*, then *tail*."""
        head = []
        if reads:
            head += ["    rov = state._registers._overlay",
                     "    rbase = state._registers._base"]
        if loads:
            head += ["    mov = state._memory._overlay",
                     "    mbase = state._memory._base"]
        return head + lines + tail

    for pc in range(start, end):
        d = entries[pc]
        category = d.category
        if pc != end - 1 and not is_straightline(d.instruction):
            raise MachineModelError(f"{d.text!r} must end its range")
        if category is Category.ARITHMETIC:
            a = read(pc, d.b)
            rhs = read(pc, d.c) if d.third_is_reg else repr(d.c)
            if d.divmod and rhs == "0":
                # Divides by zero whatever the operands: the rest of the
                # range is unreachable.
                return done(leave(pc, "    ", "state.throw(_DIVIDE_BY_ZERO)"))
            if d.divmod:
                lines.append(f"    if {rhs} == 0:")
                lines.extend(leave(pc, "        ",
                                   "state.throw(_DIVIDE_BY_ZERO)", "return"))
                fn = "_div" if d.operator == "div" else "_mod"
                write(d.a, f"{fn}({a}, {rhs})")
            else:
                write(d.a, f"{a} {_INFIX_OPS[d.operator]} {rhs}")
        elif category is Category.COMPARE:
            a = read(pc, d.b)
            rhs = read(pc, d.c) if d.third_is_reg else repr(d.c)
            write(d.a, f"1 if {a} {_COMPARE_INFIX[d.compare_op]} {rhs} "
                       "else 0")
        elif category is Category.MOVE:
            write(d.a, read(pc, d.b) if d.is_mov else repr(d.b))
        elif category is Category.LOAD:
            loads = True
            lines.append(f"    addr = {read(pc, d.b)} + {d.c!r}")
            lines.extend(["    v = mov.get(addr)",
                          "    if v is None:",
                          "        v = mbase.get(addr)",
                          "        if v is None:",
                          *leave(pc, "            ",
                                 "state.throw(_ILLEGAL_ADDRESS)", "return"),
                          "    if v is _ERR:",
                          *leave(pc, "        ",
                                 "raise _SVE('memory %d is err' % addr)")])
            write(d.a, "v")
        elif category is Category.STORE:
            address = read(pc, d.b)
            lines.append(f"    state.write_memory({address} + {d.c!r}, "
                         f"{read(pc, d.a)})")
        elif category is Category.IO_READ:
            lines.append("    if not state.has_input():")
            lines.extend(leave(pc, "        ",
                               "state.throw(_INPUT_EXHAUSTED)", "return"))
            if d.a == 0:
                lines.append("    state.next_input()")  # consumed, discarded
            else:
                write(d.a, "state.next_input()")
        elif category is Category.IO_WRITE:
            item = read(pc, d.a) if d.is_print else repr(d.a)
            lines.append(f"    state.append_output({item})")
        elif category is Category.BRANCH:
            a = read(pc, d.a)
            return done(count(pc, "    ") + [
                f"    if {a} {_COMPARE_INFIX[d.compare_op]} {d.c!r}:",
                f"        state.pc = {d.target}",
                "    else:",
                f"        state.pc += {pc - start + 1}"])
        elif category is Category.JUMP:
            return done(count(pc, "    ") + [f"    state.pc = {d.target}"])
        elif category is Category.CALL:
            return done(count(pc, "    ") + [
                f"    state.write_register({RETURN_ADDRESS_REGISTER}, "
                f"state.pc + {pc - start + 1})",
                f"    state.pc = {d.target}"])
        elif category is Category.JUMP_REGISTER:
            a = read(pc, d.a)
            return done(count(pc, "    ") + [
                f"    if ({a}).__class__ is int and 0 <= {a} < _CODE_LEN:",
                f"        state.pc = {a}",
                "    else:",
                *stay(pc, "        "),
                "        state.throw(_ILLEGAL_INSTRUCTION)"])
        elif category is Category.CHECK:
            return done(leave(
                pc, "    ",
                f"det = detectors.get({d.a!r})",
                "if det is None:",
                "    raise _MME('check instruction references unknown "
                f"detector {d.a}')",
                "outcomes = _execute_detector(det, state)",
                "if len(outcomes) != 1:",
                "    raise _SVE('detector outcome is symbolic')",
                "if outcomes[0].detected:",
                f"    state.detect({d.a!r}, {detector_exception(d.a)!r})",
                "    return",
                "state.pc += 1"))
        elif d.special == "halt":
            return done(leave(pc, "    ", "state.halt()"))
        elif d.special == "throw":
            return done(leave(pc, "    ", f"state.throw({d.b!r})"))
        elif d.special != "nop":
            return done(leave(pc, "    ", f"raise _MME({d.b!r})"))
    return done(count(end - 1, "    ") + [f"    state.pc += {end - start}"])


def _exec_namespace(program: Program) -> Dict[str, object]:
    return {
        "_ERR": ERR,
        "_SVE": SymbolicValueEncountered,
        "_MME": MachineModelError,
        "_DIVIDE_BY_ZERO": DIVIDE_BY_ZERO,
        "_ILLEGAL_ADDRESS": ILLEGAL_ADDRESS,
        "_ILLEGAL_INSTRUCTION": ILLEGAL_INSTRUCTION,
        "_INPUT_EXHAUSTED": INPUT_EXHAUSTED,
        "_div": _concrete_div,
        "_mod": _concrete_mod,
        "_execute_detector": execute_detector,
        "_NAME": program.name,
        # Length only — holding e.g. ``program.is_valid_address`` (a bound
        # method) would keep the Program alive and defeat cache eviction.
        "_CODE_LEN": len(program),
    }


def _lazy(slots: List[Optional[Callable]], start: int, end: int,
          entries: Sequence[DecodedInstruction], namespace: Dict[str, object],
          codes: Dict[tuple, CodeType], prefix: str, params: str,
          counter: str) -> Callable:
    """Placeholder for ``slots[start]`` that compiles on its first call.

    The call binds the code of ``_emit_block(entries, start, end)`` to
    *namespace* as the function's globals, stores the function in its slot
    (so later lookups get it) and runs it.  *codes* holds the code compiled
    for each distinct range, keyed by what its body is rendered from: each
    instruction with its resolved target and its ``b`` operand (an
    unhandled special's message names its pc).  The code is
    position-independent, so equal ranges at different pcs share one
    compilation.  The stub closes over the entries, its slot list, the
    namespace and *codes* only — never the Program or a bound method of it,
    so a cached DecodedProgram does not keep its program alive.
    """
    def stub(*args):
        key = (prefix, tuple([(d.instruction, d.target, d.b)
                              for d in entries[start:end]]))
        code = codes.get(key)
        if code is None:
            source = "\n".join([f"def {prefix}({params}):",
                                *_emit_block(entries, start, end)])
            scope: Dict[str, Callable] = {}
            exec(compile(source, f"<decoded {namespace['_NAME']}>", "exec"),
                 namespace, scope)
            code = codes[key] = scope[prefix].__code__
        fn = slots[start] = FunctionType(code, namespace, f"{prefix}{start}")
        hub = _obs.get()
        if hub.enabled:
            hub.count(counter)
        fn(*args)
    return stub


def cap_evenly(items: Sequence[int], cap: int) -> List[int]:
    """At most *cap* of *items*, picked at an even stride; none if cap <= 0."""
    items = list(items)
    if len(items) <= cap:
        return items
    if cap <= 0:
        return []
    return items[::len(items) // cap][:cap]


class DecodedProgram:
    """The decoded tables for one program.

    Holds *no* strong reference to the :class:`Program` (only to its
    instructions and derived data), so the identity-keyed cache entry can be
    evicted as soon as the program itself is garbage collected.

    ``concrete_ops[pc]`` and ``block_fns[pc]`` start out as stubs that
    compile their function on first call and replace themselves in the
    list, so interpreters that hold the list see the compiled function from
    the next visit on and a process compiles only the code it runs.
    """

    __slots__ = ("name", "length", "entries", "concrete_ops", "block_fns",
                 "block_lens", "chain_block_lens", "labelled",
                 "_label_addresses", "_ct_targets", "_fork_targets",
                 "__weakref__")

    def __init__(self, program: Program) -> None:
        self.name = program.name
        self.length = len(program)
        self.entries: Tuple[DecodedInstruction, ...] = tuple(
            DecodedInstruction(pc, instruction, program)
            for pc, instruction in enumerate(program.code))
        self._label_addresses = program.label_addresses()
        #: ``labelled[pc]`` is 1 where *pc* carries a label, for every pc a
        #: fall-through can reach (``0 .. length`` inclusive).
        flags = bytearray(self.length + 1)
        for address in self._label_addresses:
            if 0 <= address <= self.length:
                flags[address] = 1
        self.labelled = bytes(flags)
        self._ct_targets = program.control_transfer_targets()
        self._fork_targets: Dict[Tuple[str, int], List[int]] = {}

        namespace = _exec_namespace(program)
        codes: Dict[tuple, CodeType] = {}
        entries = self.entries
        ops: List[Callable] = [None] * self.length
        for pc in range(self.length):
            ops[pc] = _lazy(ops, pc, pc + 1, entries, namespace, codes,
                            "_op", "state, detectors", "interp.ops_compiled")
        self.concrete_ops = ops
        blocks: List[Optional[Callable]] = [None] * self.length
        self.block_lens: List[int] = [0] * self.length
        for start, end in self._plan_superblocks():
            blocks[start] = _lazy(blocks, start, end, entries, namespace,
                                  codes, "_blk", "state",
                                  "interp.superblocks_compiled")
            self.block_lens[start] = end - start
        self.block_fns = blocks
        #: ``chain_block_lens[pc]`` is ``block_lens[pc]`` where no pc in
        #: ``pc + 1 .. end`` carries a label, else 0: every state the block
        #: passes through, and the one it leaves, is a fall-through to an
        #: unlabelled pc, so a search chain may run the block in one call.
        labelled = self.labelled
        self.chain_block_lens = bytes(
            size if size and not any(labelled[pc + 1:pc + size + 1]) else 0
            for pc, size in enumerate(self.block_lens))
        hub = _obs.get()
        if hub.enabled:
            hub.count("interp.programs_decoded")

    # -------------------------------------------------------------- planning

    def _plan_superblocks(self) -> List[Tuple[int, int]]:
        """Choose ``[start, end)`` ranges of fused straight-line code.

        A block starts at every *leader* (program entry, label target, the
        instruction after a control transfer or ``check``) inside a maximal
        straight-line run, plus chaining points where a previous block hit
        :data:`SUPERBLOCK_LIMIT`, and extends to the end of the run or the
        limit, whichever is closer.  Blocks may overlap; each is a correct
        fusion from its own entry point.
        """
        fusible = [is_straightline(d.instruction) for d in self.entries]
        leaders = set(self._label_addresses)
        leaders.add(0)
        for d in self.entries:
            if not fusible[d.pc]:
                leaders.add(d.next_pc)

        blocks: List[Tuple[int, int]] = []
        planned = set()
        for leader in sorted(leaders):
            start = leader
            while (start not in planned and start < self.length
                   and fusible[start]):
                end = start
                while (end < self.length and fusible[end]
                       and end - start < SUPERBLOCK_LIMIT
                       ):
                    end += 1
                if end - start < 2:
                    break
                blocks.append((start, end))
                planned.add(start)
                start = end
        return blocks

    # -------------------------------------------------------- fork targets

    def fork_targets(self, domain: str, cap: int) -> List[int]:
        """Static control-fork landing sites for *domain*, capped at *cap*.

        Memoised per ``(domain, cap)``; callers must not mutate the result.
        """
        key = (domain, cap)
        cached = self._fork_targets.get(key)
        if cached is not None:
            return cached
        if domain == "exception_only":
            targets: Sequence[int] = ()
        elif domain == "labels":
            targets = self._label_addresses
        elif domain == "targets":
            targets = self._ct_targets
        elif domain == "all":
            targets = range(self.length)
        else:
            raise MachineModelError(f"unknown control fork domain {domain!r}")
        targets = cap_evenly(targets, cap)
        self._fork_targets[key] = targets
        return targets


# --------------------------------------------------------------------------
# Per-program cache.
# --------------------------------------------------------------------------

_CACHE: Dict[int, Tuple[Callable[[], Optional[Program]], DecodedProgram]] = {}


def decoded_program(program: Program) -> DecodedProgram:
    """The decoded tables for *program*, built at most once per identity.

    Keyed by ``id(program)`` with a weakref guard: a recycled id (new program
    allocated at a dead program's address) misses and rebuilds, and entries
    are evicted as soon as the program is collected.  Worker processes that
    unpickle a program therefore decode it once on first use.
    """
    key = id(program)
    entry = _CACHE.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    decoded = DecodedProgram(program)

    def _evict(_ref: object, _key: int = key) -> None:
        _CACHE.pop(_key, None)

    _CACHE[key] = (weakref.ref(program, _evict), decoded)
    return decoded


def clear_decode_cache() -> None:
    """Drop every cached decoded program (test hook)."""
    _CACHE.clear()
