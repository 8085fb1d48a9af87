"""The CMS translator module.

"When CMS detects critical and frequently used x86 instruction
sequences, CMS invokes the translator module to re-compile the x86
instructions into optimized VLIW instructions called translations"
(paper Section 2.2).  Translation itself runs on the VLIW core, so its
cost is charged to the engine clock and must be amortised by re-use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.domains import whole
from repro.isa.instructions import Program
from repro.vliw.engine import TranslatedBlock, VliwEngine, translate_block
from repro.vliw.molecules import FULL_FORMAT, SlotLimits
from repro.vliw.units import TM5600_LATENCIES, LatencyTable

#: ``CmsConfig.translate_cycles_per_instr``'s domain.
_CYCLES = whole(0)


@dataclass
class TranslatorStats:
    translations: int = 0


class Translator:
    """Recompiles hot guest blocks into scheduled molecule sequences."""

    def __init__(self, engine: VliwEngine,
                 latencies: LatencyTable = TM5600_LATENCIES,
                 limits: SlotLimits = FULL_FORMAT,
                 cycles_per_instr: int = 1_000) -> None:
        _CYCLES.check("Translator.cycles_per_instr", cycles_per_instr)
        self.engine = engine
        self.latencies = latencies
        self.limits = limits
        #: Translation effort: native cycles spent per guest instruction
        #: translated.  Real CMS spends on the order of thousands of
        #: cycles per translated instruction on analysis and scheduling.
        self.cycles_per_instr = cycles_per_instr
        self.stats = TranslatorStats()

    def translate(self, program: Program, entry_pc: int) -> TranslatedBlock:
        """Translate the block at *entry_pc*, charging translation time."""
        block = translate_block(
            program, entry_pc, latencies=self.latencies, limits=self.limits
        )
        self.engine.charge(block.guest_count * self.cycles_per_instr)
        self.stats.translations += 1
        return block
