"""Run-time profiling of the guest instruction stream.

The CMS interpreter "collects run-time statistical information about the
x86 instruction stream to decide if optimizations are necessary" (paper
Section 2.2).  This module is that statistics collector: per-block entry
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class BlockProfile:
    """Execution profile of one guest basic block (keyed by entry pc)."""

    executions: int = 0
    guest_instructions: int = 0

    def record(self, instr_count: int) -> None:
        self.executions += 1
        self.guest_instructions += instr_count


@dataclass
class HotSpotProfile:
    """All block profiles of a run."""

    blocks: Dict[int, BlockProfile] = field(default_factory=dict)

    def record(self, entry_pc: int, instr_count: int) -> BlockProfile:
        profile = self.blocks.get(entry_pc)
        if profile is None:
            profile = BlockProfile()
            self.blocks[entry_pc] = profile
        profile.record(instr_count)
        return profile
