"""The picklable unit of the pluggable fault-model subsystem.

A :class:`FaultSpec` is one planned fault: *where* to corrupt (inherited
from :class:`~repro.errors.injector.Injection` — breakpoint, dynamic
occurrence, target location), *what* to write there (``value``, the
symbolic ``err`` by default, or any concrete integer a future model may
choose) and *which model* planned it.

Because a ``FaultSpec`` **is** an ``Injection``, it travels through every
existing carrier unchanged: the task payloads shipped through the broker
and the results store pickle and merge FaultSpecs exactly like plain
injections — the execution backends (serial, broker workers) need no
spec-specific code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors.injector import Injection
from ..isa.values import ERR, Value, is_err


@dataclass(frozen=True)
class FaultSpec(Injection):
    """One planned fault: an injection point plus the value to write.

    Attributes (beyond :class:`Injection`'s):
        value: what the corrupted location receives — ``ERR`` for the
            paper's abstract error symbol, or a concrete integer for
            models that corrupt with specific values.
        model: name of the :class:`~repro.faults.models.FaultModel` that
            planned this spec (identifies the space the spec was drawn
            from in reports and the results store).
    """

    value: Value = ERR
    model: str = ""

    def label(self) -> str:
        base = super().label()
        if self.model:
            base = f"[{self.model}] {base}"
        if not is_err(self.value):
            base += f" value={self.value!r}"
        return base


@dataclass(frozen=True)
class BurstFaultSpec(FaultSpec):
    """*k* simultaneous faults applied together at one breakpoint.

    The paper's multi-error extension: instead of one corruption per
    experiment, an ordered tuple of component :class:`FaultSpec`\\ s is
    applied in one shot when the breakpoint is reached — every component
    shares this spec's ``breakpoint_pc``/``occurrence``, so the whole burst
    is activated by the very next instruction, exactly like a single fault.

    Attributes (beyond :class:`FaultSpec`'s):
        components: the component faults, **in application order**.  The
            order is part of the spec's identity: it survives pickling,
            broker manifests and the results store unchanged (see the
            round-trip property in ``tests/test_burst_parity.py``), and it
            is the order :func:`~repro.machine.executor.apply_fault_set`
            writes the corruptions in.

    ``target`` mirrors the first component's target (so carriers and the
    results warehouse that index on ``(breakpoint_pc, target)`` keep
    working); :meth:`label` spells out every component so two bursts at
    one site never collide in the results store.
    """

    components: Tuple[FaultSpec, ...] = ()

    def label(self) -> str:
        where = " + ".join(repr(component.target)
                           for component in self.components) \
            or repr(self.target)
        base = f"pc={self.breakpoint_pc}#{self.occurrence} -> {where}"
        if self.description:
            base += f" ({self.description})"
        if self.model:
            base = f"[{self.model}] {base}"
        return base


@dataclass(frozen=True)
class BitFlipFaultSpec(FaultSpec):
    """One concrete single-bit corruption of a register or memory word.

    Unlike every other spec, the written value is not known statically: the
    corruption is a read-modify-write — the current contents of ``target``
    XOR ``1 << bit`` (an ``err`` already sitting there stays ``err``).
    :func:`~repro.machine.executor.apply_fault_set` performs the read and
    the flip through the same CoW write path all other corruptions use, so
    the symbolic campaign and the concrete simulator inject the *identical*
    flipped word at the identical dynamic point.
    """

    bit: int = 0

    def label(self) -> str:
        return f"{super().label()} bit={self.bit}"
