"""The Transmeta Crusoe as a :class:`Processor`: CMS + VLIW end to end.

Unlike the hardware models, the Crusoe's timing comes from actually
morphing the guest code: interpreting cold blocks, translating hot ones,
and executing cached molecule schedules on the in-order VLIW engine.
The paper's observation that the Transmeta "was not [optimised] due to
the lack of knowledge on the internal details" corresponds to our
translator seeing one basic block at a time with no loop unrolling.
"""

from __future__ import annotations

from typing import Optional

from repro.cms import CmsConfig, CodeMorphingSoftware
from repro.cpus.base import (
    KernelResult,
    Processor,
    ProcessorSpec,
    WrongAnswerError,
)
from repro.isa.programs import GuestWorkload


class CrusoeProcessor(Processor):
    """A software-hardware hybrid CPU (TM5600/TM5800 family)."""

    def __init__(self, spec: ProcessorSpec,
                 cms_config: Optional[CmsConfig] = None) -> None:
        self.spec = spec
        self.cms_config = cms_config or CmsConfig()

    def run_workload(self, workload: GuestWorkload) -> KernelResult:
        cms = CodeMorphingSoftware(self.cms_config)
        result = cms.run(
            workload.program, workload.make_state(), max_steps=100_000_000
        )
        if not workload.check(result.state):
            raise WrongAnswerError(
                f"{self.name} produced wrong results on {workload.name}"
            )
        seconds = result.cycles / self.spec.clock_hz
        return KernelResult(
            processor=self.name,
            workload=workload.name,
            cycles=result.cycles,
            seconds=seconds,
            nominal_flops=workload.nominal_flops,
            guest_instructions=result.guest_stats.instructions,
        )
