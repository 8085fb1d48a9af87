"""Code Morphing Software (CMS).

Paper Section 2.2: CMS is the software half of the Crusoe - it gives
x86 programs the illusion of running on x86 hardware by combining

- an **interpreter** that executes guest instructions one at a time,
  filters infrequently executed code from being needlessly optimised,
  and collects run-time statistics about the instruction stream; and
- a **translator** that recompiles critical, frequently-executed guest
  regions into optimised VLIW *translations*, cached in a
  **translation cache** so the initial cost of translating is amortised
  over repeated executions.

:class:`~repro.cms.cms.CodeMorphingSoftware` orchestrates the loop;
:class:`~repro.cms.cms.CmsConfig` exposes the knobs the ablation benches
sweep (hot threshold, cache capacity, molecule width, interpret and
translate costs).
"""

from repro.cms.cms import CmsConfig, CmsResult, CodeMorphingSoftware
from repro.cms.interpreter import GuestInterpreter, InterpreterStats
from repro.cms.profilecollect import BlockProfile, HotSpotProfile
from repro.cms.tcache import CacheStats, TranslationCache
from repro.cms.translator import Translator, TranslatorStats

__all__ = [
    "BlockProfile",
    "CacheStats",
    "CmsConfig",
    "CmsResult",
    "CodeMorphingSoftware",
    "GuestInterpreter",
    "HotSpotProfile",
    "InterpreterStats",
    "TranslationCache",
    "Translator",
    "TranslatorStats",
]
