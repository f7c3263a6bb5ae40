"""Pluggable fault models: how an injection space is enumerated or sampled.

The paper's error model — single transient errors in registers, memory,
computation and control flow (Section 3.3, Table 1) — is described here
once.  A :class:`FaultModel` is a first-class, picklable object: it
*enumerates* the full injection space of a program (every
:class:`~repro.faults.spec.FaultSpec` of its class) or *samples* a
deterministic subset under a seed, and the campaign plans its sweep from
whichever model it is given (:class:`RegisterValueFault` by default).

Nine concrete models ship here, selected on the CLI by
``repro analyze --fault-model NAME``:

* :class:`RegisterValueFault` — ``err`` in a register used by each
  instruction (the paper's Section 6 campaign; Table 1's register row);
* :class:`MemoryCellFault` — ``err`` in a data-segment memory word,
  placed just before each load so the corruption can be consumed;
* :class:`ControlFlowFault` — a corrupted program counter at
  control-transfer instructions (branch/jump/call targets);
* :class:`InstructionOperandFault` — ``err`` in the source operands an
  instruction reads (Table 1's address/data bus row);
* :class:`FunctionalUnitFault` — ``err`` in the register an instruction
  writes, right after it executes (Table 1's functional-unit row);
* :class:`DecodeFault` — the instruction decoder turned one instruction
  into another (Table 1's decoder row);
* :class:`FetchFault` — a corrupted program counter at every
  instruction (Table 1's instruction-fetch row);
* :class:`BurstFault` — *k* simultaneous corruptions per experiment
  (the paper's multi-error extension), composed from the base models'
  spaces into :class:`~repro.faults.spec.BurstFaultSpec` tuples;
* :class:`BitFlipFault` — concrete single-bit corruptions over the same
  injection addresses the symbolic models enumerate, the Monte-Carlo leg
  of the symbolic-vs-bit-flip parity study (Section 6's comparison).

Errors in processor control logic (register renaming and the like) are
outside the fault model, as in the paper.  Future models (timing errors,
multi-bit cell faults, ...) plug in by subclassing :class:`FaultModel` and
registering in :data:`FAULT_MODELS`; everything downstream — planning,
chunking, the four execution backends, the results store — operates on the
produced FaultSpecs and needs no change.  The authoring walkthrough (with
burst/bitflip as worked examples) lives in ``docs/fault-models.md``.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..constraints import Location
from ..errors.injector import registers_used_at
from ..isa.instructions import Category
from ..isa.program import Program
from .spec import BitFlipFaultSpec, BurstFaultSpec, FaultSpec


def deterministic_sample(space: Sequence[FaultSpec], k: int,
                         seed: Optional[int] = None) -> List[FaultSpec]:
    """An order-preserving, seed-deterministic sample of *k* specs.

    The same ``(space, k, seed)`` always yields the same subset in the
    same (enumeration) order, so a sampled campaign planned once by the
    coordinator is byte-identical no matter which backend executes it.
    ``seed=None`` means seed 0 — sampling is *never* nondeterministic.
    A *k* larger than the space clamps to the full space with a one-line
    warning (asking for "at most k" of a smaller space is well-defined).
    """
    if k < 1:
        raise ValueError(f"sample size must be >= 1, got {k}")
    space = list(space)
    if k >= len(space):
        if k > len(space):
            warnings.warn(
                f"sample size {k} exceeds the enumerated fault space "
                f"({len(space)} injections); sweeping the full space",
                RuntimeWarning, stacklevel=2)
        return space
    rng = random.Random(0 if seed is None else seed)
    chosen = sorted(rng.sample(range(len(space)), k))
    return [space[index] for index in chosen]


class FaultModel:
    """A named, picklable category of transient hardware faults.

    This is the seam every new error scenario plugs into (authoring guide:
    ``docs/fault-models.md``).  Subclasses implement :meth:`enumerate`;
    :meth:`sample` and :meth:`plan` are derived.  The contract:

    * **Enumeration is pure.**  :meth:`enumerate` must be a deterministic
      function of ``(program, memory, pcs)`` — no wall clock, no unseeded
      randomness, no filesystem — so every backend, worker and resumed
      campaign sees the identical space in the identical order.
    * **Specs are picklable and frozen.**  The produced
      :class:`~repro.faults.spec.FaultSpec`\\ s ride every existing
      carrier unchanged (injection chunks, task payloads, broker
      manifests, the results store); equality must survive a pickle
      round-trip, and :meth:`~repro.errors.injector.Injection.label` must
      be unique within the space (resume matches stored rows by it).
    * **Models are small frozen dataclasses.**  The model instance itself
      travels inside :class:`~repro.parallel.spec.CampaignSpec` and is
      content-digested into the campaign header, so configuration (e.g.
      :attr:`BurstFault.k`) pins the campaign identity.

    Register instances in :data:`FAULT_MODELS` to expose them on the CLI
    (``repro analyze --fault-model NAME``); planning, sampling, all four
    execution backends and the results warehouse then work on the new
    specs with no further changes.
    """

    name: str = "abstract"

    def enumerate(self, program: Program,
                  memory: Optional[Dict[int, int]] = None,
                  pcs: Optional[Sequence[int]] = None) -> List[FaultSpec]:
        """The full injection space of this model for *program*.

        *memory* is the campaign's loader-initialised data segment (models
        that corrupt memory cells draw their addresses from it); *pcs*
        optionally restricts the sweep to a subset of code addresses (used
        by the search-task decomposition).
        """
        raise NotImplementedError

    def sample(self, program: Program, k: int, seed: Optional[int] = None,
               memory: Optional[Dict[int, int]] = None,
               pcs: Optional[Sequence[int]] = None) -> List[FaultSpec]:
        """A deterministic k-spec sample of the enumerated space."""
        return deterministic_sample(
            self.enumerate(program, memory=memory, pcs=pcs), k, seed)

    def plan(self, program: Program,
             memory: Optional[Dict[int, int]] = None,
             sample: Optional[int] = None, seed: Optional[int] = None,
             pcs: Optional[Sequence[int]] = None) -> List[FaultSpec]:
        """The sweep a campaign should run: everything, or a seeded sample."""
        if sample is None:
            return self.enumerate(program, memory=memory, pcs=pcs)
        return self.sample(program, sample, seed=seed, memory=memory, pcs=pcs)

    def _addresses(self, program: Program,
                   pcs: Optional[Sequence[int]]) -> Sequence[int]:
        return range(len(program)) if pcs is None else pcs


@dataclass(frozen=True)
class RegisterValueFault(FaultModel):
    """``err`` in a register at the instruction that uses it.

    The current campaign behaviour, extracted: for every static
    instruction, one fault per register selected by *policy* (``"used"``
    reproduces the paper's activation-guaranteed Section 6 sweep).
    """

    policy: str = "used"
    name = "register"

    def _description(self, register: int) -> str:
        return f"register-file error in ${register}"

    def enumerate(self, program: Program,
                  memory: Optional[Dict[int, int]] = None,
                  pcs: Optional[Sequence[int]] = None) -> List[FaultSpec]:
        specs: List[FaultSpec] = []
        for pc in self._addresses(program, pcs):
            for register in registers_used_at(program, pc, self.policy):
                specs.append(FaultSpec(
                    breakpoint_pc=pc, target=Location.register(register),
                    description=self._description(register),
                    model=self.name))
        return specs


@dataclass(frozen=True)
class MemoryCellFault(FaultModel):
    """``err`` in a main-memory word (data-segment cell corruption).

    When the program has a loader-initialised data segment, each known
    cell is corrupted immediately before each load instruction (so the
    corruption can be consumed; unread cells exercise *latent* errors —
    see the ``latent-err`` query).  Programs without a data segment fall
    back to corrupting each load's destination register right after the
    load — equivalent to an error on the memory/cache bus feeding it.

    Caveat of the bus fallback: it breaks at the first dynamic arrival at
    ``pc + 1``, which for a load whose successor is also a branch target
    may happen before the load ever executes — the injection then
    degenerates to a plain register error; and when ``pc + 1`` is never
    reached the experiment is reported as not activated.
    """

    name = "memory"

    def enumerate(self, program: Program,
                  memory: Optional[Dict[int, int]] = None,
                  pcs: Optional[Sequence[int]] = None) -> List[FaultSpec]:
        addresses = list(self._addresses(program, pcs))
        load_pcs = [pc for pc in addresses
                    if (instruction := program.fetch(pc)) is not None
                    and instruction.category is Category.LOAD]
        cells = sorted(memory) if memory else []
        specs: List[FaultSpec] = []
        if cells:
            # No loads at all (straight-line data init): corrupt at entry.
            sites = load_pcs or addresses[:1]
            for pc in sites:
                for address in cells:
                    specs.append(FaultSpec(
                        breakpoint_pc=pc, target=Location.memory(address),
                        description=f"memory word {address} holds err",
                        model=self.name))
        else:
            for pc in load_pcs:
                instruction = program.fetch(pc)
                specs.append(FaultSpec(
                    breakpoint_pc=pc + 1,
                    target=Location.register(instruction.operands[0]),
                    description="memory word feeding this load (via bus)",
                    model=self.name))
        return specs


@dataclass(frozen=True)
class ControlFlowFault(FaultModel):
    """A corrupted program counter at control-transfer points.

    The PC is replaced with ``err`` just before each branch/jump/call, so
    the symbolic executor forks over every feasible landing site (or the
    illegal-instruction outcome), reproducing the paper's control-flow
    error semantics.  A program without any control transfer degrades to
    an instruction-fetch error at every instruction.
    """

    name = "control"
    description = "corrupted control flow (err PC)"

    _TRANSFERS = (Category.BRANCH, Category.JUMP, Category.CALL,
                  Category.JUMP_REGISTER)

    def _sites(self, program: Program, addresses: List[int]) -> List[int]:
        transfer_pcs = [pc for pc in addresses
                        if program.fetch(pc).category in self._TRANSFERS]
        return transfer_pcs or addresses

    def enumerate(self, program: Program,
                  memory: Optional[Dict[int, int]] = None,
                  pcs: Optional[Sequence[int]] = None) -> List[FaultSpec]:
        addresses = [pc for pc in self._addresses(program, pcs)
                     if program.fetch(pc) is not None]
        return [FaultSpec(breakpoint_pc=pc, target=Location.pc(),
                          description=self.description, model=self.name)
                for pc in self._sites(program, addresses)]


@dataclass(frozen=True)
class FetchFault(ControlFlowFault):
    """Instruction-fetch error: the PC is corrupted before every instruction.

    Table 1's last row.  The symbolic executor resolves the corrupted PC
    by forking to arbitrary but valid code locations, or raising an
    illegal-instruction exception.
    """

    name = "fetch"
    description = "instruction fetch error (corrupted PC)"

    def _sites(self, program: Program, addresses: List[int]) -> List[int]:
        return addresses


@dataclass(frozen=True)
class InstructionOperandFault(RegisterValueFault):
    """``err`` in the source operands an instruction reads.

    Operand corruption on the read path (Table 1's address/data bus row:
    data read from memory, cache or register file is corrupted): the
    register sweep restricted to each instruction's *read* operands,
    corrupted immediately before the instruction executes so the wrong
    operand is guaranteed to be consumed.
    """

    policy: str = "reads"
    name = "operand"

    def _description(self, register: int) -> str:
        return f"operand ${register} corrupted"


@dataclass(frozen=True)
class FunctionalUnitFault(FaultModel):
    """The functional unit's output is corrupted (Table 1).

    ``err`` in each register the instruction writes, injected right after
    the instruction (at ``pc + 1``), where the corrupted output becomes
    visible.
    """

    name = "functional-unit"

    def enumerate(self, program: Program,
                  memory: Optional[Dict[int, int]] = None,
                  pcs: Optional[Sequence[int]] = None) -> List[FaultSpec]:
        return [FaultSpec(breakpoint_pc=pc + 1,
                          target=Location.register(register),
                          description="functional unit output error",
                          model=self.name)
                for pc in self._addresses(program, pcs)
                for register in registers_used_at(program, pc, "writes")]


@dataclass(frozen=True)
class DecodeFault(FaultModel):
    """The instruction decoder turned one valid instruction into another.

    Table 1 models its sub-cases through ``err`` in the original and/or new
    destination: ``err`` in the instruction's destination right after it
    (the original target no longer receives its value) and, for
    instructions with no destination, ``err`` in the registers it reads (a
    freshly introduced wrong target).  The two cases can name the same
    corrupted state — the destination of ``pc`` and a read register of a
    destination-free instruction at ``pc + 1`` — so only the first spec
    per ``(breakpoint, occurrence, target)`` is kept.
    """

    name = "decode"

    def enumerate(self, program: Program,
                  memory: Optional[Dict[int, int]] = None,
                  pcs: Optional[Sequence[int]] = None) -> List[FaultSpec]:
        specs: Dict[Tuple[int, int, Location], FaultSpec] = {}
        for pc in self._addresses(program, pcs):
            registers = registers_used_at(program, pc, "writes")
            if registers:
                site, what = pc + 1, "original/new target corrupted"
            else:
                registers = registers_used_at(program, pc, "reads")
                site, what = pc, "wrong target introduced"
            for register in registers:
                spec = FaultSpec(breakpoint_pc=site,
                                 target=Location.register(register),
                                 description=f"decode error: {what}",
                                 model=self.name)
                specs.setdefault((site, spec.occurrence, spec.target), spec)
        return list(specs.values())


@dataclass(frozen=True)
class BurstFault(FaultModel):
    """*k* simultaneous corruptions per experiment (multi-error bursts).

    The paper's multi-error extension: where the single-fault models place
    one corruption per experiment, a burst applies *k* of them in one shot.
    The space is composed from the enumerated spaces of *base_models*:
    component specs are grouped by ``(breakpoint_pc, occurrence)`` — so
    every component of a burst is activated together by the very next
    instruction — and each k-combination of distinct targets at one site
    becomes one :class:`~repro.faults.spec.BurstFaultSpec`.

    Determinism: components keep base-model enumeration order, sites are
    swept in address order, and combinations come out in
    :func:`itertools.combinations` order — all pure functions of the
    program, so every backend plans the identical burst space and
    ``--sample``/``--seed`` pick the identical subset
    (seed-deterministic pairing).  ``--burst-k`` on the CLI rebuilds the
    registered instance with a different *k*.
    """

    k: int = 2
    #: Registered base models whose spaces the bursts are drawn from.  Any
    #: registered name works (cross-model bursts included); the default
    #: composes register-file faults, the paper's Section 6 space.
    base_models: Tuple[str, ...] = ("register",)
    name = "burst"

    def enumerate(self, program: Program,
                  memory: Optional[Dict[int, int]] = None,
                  pcs: Optional[Sequence[int]] = None) -> List[FaultSpec]:
        if self.k < 2:
            raise ValueError(f"a burst needs k >= 2 simultaneous faults, "
                             f"got k={self.k}")
        if self.name in self.base_models:
            raise ValueError("a burst cannot compose itself; pick base "
                             "models from the other registered models")
        by_site: Dict[Tuple[int, int], List[FaultSpec]] = {}
        for base_name in self.base_models:
            base = fault_model(base_name)
            for spec in base.enumerate(program, memory=memory, pcs=pcs):
                site = (spec.breakpoint_pc, spec.occurrence)
                by_site.setdefault(site, []).append(spec)
        specs: List[FaultSpec] = []
        for site in sorted(by_site):
            # Distinct targets only: corrupting one location twice in the
            # same burst degenerates to a single fault.
            components: List[FaultSpec] = []
            seen_targets = set()
            for spec in by_site[site]:
                key = (spec.target.kind, spec.target.index)
                if key not in seen_targets:
                    seen_targets.add(key)
                    components.append(spec)
            for combo in itertools.combinations(components, self.k):
                specs.append(BurstFaultSpec(
                    breakpoint_pc=site[0], occurrence=site[1],
                    target=combo[0].target,
                    description=f"burst of {self.k} simultaneous faults",
                    model=self.name, components=combo))
        return specs


@dataclass(frozen=True)
class BitFlipFault(FaultModel):
    """Concrete single-bit flips over the symbolic models' addresses.

    The Monte-Carlo leg of the parity study: for every injection address
    the *base_models* enumerate (register words at each instruction that
    uses them, and — through the memory model — data-segment cells before
    each load), one spec per bit of the word.  The corruption is a
    read-modify-write XOR of ``1 << bit`` at the breakpoint, so a bitflip
    campaign is the classic random-FI experiment the paper validates
    against (Section 6.3) swept over *exactly* the addresses the symbolic
    ``err`` campaign covers — which is what makes the symbolic-vs-bit-flip
    coverage comparison (``repro report --parity`` /
    ``repro analyze --compare-concrete``) an apples-to-apples join.
    """

    word_bits: int = 32
    base_models: Tuple[str, ...] = ("register", "memory")
    name = "bitflip"

    def enumerate(self, program: Program,
                  memory: Optional[Dict[int, int]] = None,
                  pcs: Optional[Sequence[int]] = None) -> List[FaultSpec]:
        if self.name in self.base_models:
            raise ValueError("bitflip cannot compose itself; pick base "
                             "models from the other registered models")
        specs: List[FaultSpec] = []
        for base_name in self.base_models:
            base = fault_model(base_name)
            for spec in base.enumerate(program, memory=memory, pcs=pcs):
                for bit in range(self.word_bits):
                    specs.append(BitFlipFaultSpec(
                        breakpoint_pc=spec.breakpoint_pc,
                        occurrence=spec.occurrence,
                        target=spec.target,
                        description="single-bit flip",
                        model=self.name, bit=bit))
        return specs


#: The pre-defined fault models offered on the CLI (`--fault-model`).
FAULT_MODELS: Dict[str, FaultModel] = {
    "register": RegisterValueFault(),
    "memory": MemoryCellFault(),
    "control": ControlFlowFault(),
    "operand": InstructionOperandFault(),
    "functional-unit": FunctionalUnitFault(),
    "decode": DecodeFault(),
    "fetch": FetchFault(),
    "burst": BurstFault(),
    "bitflip": BitFlipFault(),
}


def fault_model(name: str) -> FaultModel:
    """Look up a pre-defined fault model by name."""
    try:
        return FAULT_MODELS[name]
    except KeyError:
        raise ValueError(f"unknown fault model {name!r}; available: "
                         f"{sorted(FAULT_MODELS)}") from None
