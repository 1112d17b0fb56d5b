"""Configuration of the Teapot rewriter and runtime."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.plugins import DEFAULT_ENGINE


class ToolConfig:
    """The copies every detector configuration offers.

    Each is a :func:`dataclasses.replace` of one field, so a runtime is
    configured once, by the configuration it is built from.
    """

    def with_engine(self, engine: str):
        """A copy of this configuration running on a different engine."""
        return replace(self, engine=engine)

    def with_variants(self, *variants: str):
        """A copy of this configuration simulating different variants."""
        return replace(self, variants=tuple(variants))

    def without_nesting(self):
        """A copy without nested speculation (the paper's §7.1 setup)."""
        return replace(self, nested_speculation=False)


@dataclass
class TeapotConfig(ToolConfig):
    """Tunable knobs of Teapot's instrumentation and runtime.

    Defaults match the paper's settings; the performance experiments
    (Figures 1 and 7) disable nested speculation, and Table 3 disables the
    taint sources and the Massage policy.
    """

    #: reorder-buffer stand-in: instructions simulated per speculation episode.
    rob_budget: int = 250
    #: insert nested-speculation checkpoints in the Shadow Copy.
    nested_speculation: bool = True
    #: maximum misprediction nesting depth (paper: 6).
    max_depth: int = 6
    #: eager nested runs per branch before the SpecFuzz ramp takes over.
    eager_runs: int = 5
    #: SpecFuzz encounter ramp (encounters per extra depth level).
    specfuzz_ramp: int = 16
    #: place a conditional restore point every N architectural instructions
    #: inside large blocks (paper: 50).
    restore_interval: int = 50
    #: insert coverage tracing instrumentation.
    coverage: bool = True
    #: use the lazy speculative-coverage optimisation (paper §6.3); when
    #: False, the expensive normal coverage call is used inside the Shadow
    #: Copy as well (the ablation benchmark flips this).
    lazy_spec_coverage: bool = True
    #: enable the Massage (attacker-indirect) policies.
    massage_enabled: bool = True
    #: enable tagging of program inputs as attacker-controlled.
    taint_sources_enabled: bool = True
    #: protect stack frames by poisoning return-address slots.
    protect_stack: bool = True
    #: skip ASan/policy checks on sp/fp + constant accesses (paper §6.2.1).
    allowlist_frame_accesses: bool = True
    #: maximum emulator steps per execution (hang protection for fuzzing).
    max_steps: int = 5_000_000
    #: emulator engine: ``"jit"`` (block-compiled generated code +
    #: copy-on-write rollback journaling, persistent compiled-block cache),
    #: ``"fast"`` (the same compiled engine one instruction at a time) or
    #: ``"legacy"`` (generic dispatch + full-state checkpoints).  All
    #: produce bit-identical results — see ``docs/emulator.md`` and the
    #: differential test harness.
    engine: str = DEFAULT_ENGINE
    #: speculation variants to simulate ("pht", "btb", "rsb", "stl", or any
    #: ``@register_model`` plugin).  The default matches the paper:
    #: conditional-branch misprediction only.  See ``docs/variants.md``.
    variants: Tuple[str, ...] = ("pht",)
    #: optional :class:`repro.telemetry.Telemetry` observer threaded into
    #: the emulator this configuration builds.  Observation-only — results
    #: are bit-identical with or without it.  ``None`` (the default) falls
    #: back to the process-wide bundle installed by
    #: :func:`repro.telemetry.context.session`.
    telemetry: object = None
