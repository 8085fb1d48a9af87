"""The CMS orchestrator: interpret, profile, translate, re-use.

The top of the Crusoe software stack.  For each guest basic block the
run loop consults the translation cache; on a hit it executes natively
on the VLIW engine, otherwise it interprets the block, bumps its profile
counter, and - once the block crosses the hot threshold - invokes the
translator and caches the result.

Architectural transparency is the non-negotiable invariant (tested with
property-based random programs): final guest state is bit-identical to
the golden interpreter for every configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.isa.instructions import Program
from repro.isa.machine import ExecStats, Machine, MachineState
from repro.cms.interpreter import GuestInterpreter
from repro.cms.profilecollect import HotSpotProfile
from repro.cms.tcache import TranslationCache
from repro.cms.translator import Translator
from repro.vliw.engine import VliwEngine
from repro.vliw.molecules import FULL_FORMAT, SlotLimits
from repro.vliw.units import TM5600_LATENCIES, LatencyTable


@dataclass(frozen=True)
class CmsConfig:
    """Tunable parameters of the morphing pipeline.

    ``hot_threshold`` is the number of interpreted executions after
    which a block is deemed critical and translated; 1 means translate
    eagerly on first touch, large values approach a pure interpreter.
    """

    hot_threshold: int = 8
    tcache_bytes: int = 1 << 20
    interpret_cycles_per_instr: int = 20
    translate_cycles_per_instr: int = 1_000
    #: Cost of entering a cached translation through the CMS dispatch
    #: loop (hash lookup + indirect jump).
    dispatch_cycles: int = 12
    #: Translation chaining: once a translation's taken successor is
    #: also cached, CMS patches a direct jump between them and the
    #: dispatch cost disappears on that edge - the optimisation that
    #: makes hot loops run at full native speed.
    enable_chaining: bool = True
    latencies: LatencyTable = TM5600_LATENCIES
    limits: SlotLimits = FULL_FORMAT

    def __post_init__(self) -> None:
        if self.hot_threshold < 1:
            raise ValueError("hot_threshold must be >= 1")
        if self.dispatch_cycles < 0:
            raise ValueError("dispatch_cycles cannot be negative")


@dataclass
class CmsResult:
    """Outcome of running one guest program under CMS."""

    state: MachineState
    guest_stats: ExecStats
    cycles: int
    interpreted_instructions: int
    translated_blocks: int
    native_blocks: int
    tcache_hit_rate: float
    profile: HotSpotProfile
    dispatches: int = 0
    chained_jumps: int = 0

    @property
    def native_fraction(self) -> float:
        """Fraction of dynamic guest instructions executed natively."""
        total = self.guest_stats.instructions
        if total == 0:
            return 0.0
        return 1.0 - self.interpreted_instructions / total


class CodeMorphingSoftware:
    """Runs guest programs on the modelled Crusoe."""

    def __init__(self, config: Optional[CmsConfig] = None) -> None:
        self.config = config or CmsConfig()
        self.engine = VliwEngine(
            latencies=self.config.latencies, limits=self.config.limits
        )
        self.interpreter = GuestInterpreter(
            self.engine,
            cycles_per_instr=self.config.interpret_cycles_per_instr,
        )
        self.translator = Translator(
            self.engine,
            latencies=self.config.latencies,
            limits=self.config.limits,
            cycles_per_instr=self.config.translate_cycles_per_instr,
        )
        self.tcache = TranslationCache(self.config.tcache_bytes)
        self.profile = HotSpotProfile()
        #: Patched translation-to-translation edges (survives runs, like
        #: the cache itself).
        self._chains = set()
        #: The program the cache, the profile and the chains - all keyed
        #: by pc - belong to.
        self._program: Optional[Program] = None

    def _bind(self, program: Program) -> None:
        """Translations belong to one program; drop them for another.

        By identity, as :meth:`Machine._bind` does: running the same
        ``Program`` object again stays warm.
        """
        if program is not self._program:
            self._program = program
            self.tcache.flush()
            self.profile = HotSpotProfile()
            self._chains = set()

    def run(self, program: Program, state: Optional[MachineState] = None,
            max_steps: int = 10_000_000) -> CmsResult:
        """Execute *program* to completion under code morphing."""
        self._bind(program)
        machine = Machine(state=state, max_steps=max_steps)
        self.engine.reset()
        native_blocks = 0
        dispatches = 0
        chained_jumps = 0
        threshold = self.config.hot_threshold
        prev_native_pc = None
        chains = self._chains

        while not machine.state.halted:
            if machine.stats.instructions > max_steps:
                raise RuntimeError(
                    f"exceeded max_steps={max_steps} in {program.name}"
                )
            pc = machine.state.pc
            translation = self.tcache.lookup(pc)
            if translation is not None:
                edge = (prev_native_pc, pc)
                if (
                    self.config.enable_chaining
                    and prev_native_pc is not None
                    and edge in chains
                ):
                    chained_jumps += 1        # patched direct jump: free
                else:
                    self.engine.charge(self.config.dispatch_cycles)
                    dispatches += 1
                    if (self.config.enable_chaining
                            and prev_native_pc is not None):
                        chains.add(edge)      # CMS patches the edge
                self.engine.execute_block(translation.block, program, machine)
                native_blocks += 1
                prev_native_pc = pc
                continue
            prev_native_pc = None
            executed = self.interpreter.interpret_block(program, machine)
            profile = self.profile.record(pc, executed)
            if profile.executions >= threshold:
                self.tcache.insert(self.translator.translate(program, pc))

        return CmsResult(
            state=machine.state,
            guest_stats=machine.stats,
            cycles=self.engine.clock,
            interpreted_instructions=self.interpreter.stats.guest_instructions,
            translated_blocks=self.translator.stats.translations,
            native_blocks=native_blocks,
            tcache_hit_rate=self.tcache.stats.hit_rate,
            profile=self.profile,
            dispatches=dispatches,
            chained_jumps=chained_jumps,
        )
