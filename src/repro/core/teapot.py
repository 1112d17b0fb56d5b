"""The Teapot driver: static rewriting stage + dynamic runtime stage.

:class:`TeapotRewriter` implements the left half of the paper's Figure 3
workflow (disassemble → make copies → instrument → reassemble);
:class:`TeapotRuntime` implements the right half (execute/fuzz the
instrumented binary with the speculation-simulation runtime, the Kasper
policy and coverage feedback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.config import TeapotConfig
from repro.core.instrumentation import (
    AccessInstrumentationPass,
    CoveragePass,
    DiftInstrumentationPass,
    RestorePointPass,
)
from repro.core.markers import EscapeMarkerPass
from repro.core.shadows import ShadowCopyPass
from repro.core.trampolines import TrampolinePass
from repro.coverage.sancov import CoverageRuntime
from repro.disasm.disassembler import disassemble
from repro.disasm.ir import Module
from repro.loader.binary_format import TelfBinary
from repro.rewriting.passes import PassManager
from repro.rewriting.reassemble import reassemble
from repro.runtime.costs import CostModel, DEFAULT_COSTS
from repro.runtime.emulator import ExecutionResult
from repro.runtime.externals import ExternalRegistry
from repro.runtime.fastpath import resolve_engine
from repro.runtime.speculation import (
    DisabledNestingPolicy,
    TeapotNestingPolicy,
)
from repro.sanitizers.policy import KasperPolicy


class TeapotRewriter:
    """Static binary rewriter implementing Speculation Shadows."""

    tool_name = "teapot"

    def __init__(self, config: Optional[TeapotConfig] = None) -> None:
        self.config = config or TeapotConfig()
        #: per-pass statistics of the last :meth:`instrument` invocation.
        self.last_stats: Dict[str, Dict[str, int]] = {}

    def build_pass_manager(self) -> PassManager:
        """The ordered pass pipeline (paper §4-§6)."""
        manager = PassManager()
        manager.add(ShadowCopyPass())
        manager.add(CoveragePass(self.config))
        manager.add(AccessInstrumentationPass(self.config))
        manager.add(DiftInstrumentationPass())
        manager.add(RestorePointPass(self.config))
        manager.add(EscapeMarkerPass())
        manager.add(TrampolinePass(self.config))
        return manager

    def instrument_module(self, module: Module) -> Module:
        """Run the pass pipeline over an already-disassembled module."""
        manager = self.build_pass_manager()
        self.last_stats = manager.run(module)
        module.metadata["tool"] = self.tool_name
        return module

    def instrument(self, binary: TelfBinary) -> TelfBinary:
        """Disassemble, instrument and reassemble a COTS binary."""
        module = disassemble(binary)
        module = self.instrument_module(module)
        return reassemble(module)


@dataclass
class TeapotRuntime:
    """Bundles everything needed to execute a Teapot-instrumented binary.

    This is the runtime support the fuzzer drives: the speculation
    controller with Teapot's nesting heuristic, the Kasper detection
    policy, and the two coverage maps.
    """

    binary: TelfBinary
    config: TeapotConfig = field(default_factory=TeapotConfig)
    externals: Optional[ExternalRegistry] = None
    cost_model: CostModel = field(default_factory=lambda: DEFAULT_COSTS)

    def __post_init__(self) -> None:
        if self.config.nested_speculation:
            policy = TeapotNestingPolicy(
                max_depth=self.config.max_depth,
                eager_runs=self.config.eager_runs,
                ramp=self.config.specfuzz_ramp,
            )
        else:
            policy = DisabledNestingPolicy()
        emulator_cls, controller_cls = resolve_engine(self.config.engine)
        self.controller = controller_cls(policy, rob_budget=self.config.rob_budget)
        self.detection_policy = KasperPolicy(massage_enabled=self.config.massage_enabled)
        self.coverage = CoverageRuntime()
        self.spec_models = self._build_spec_models()
        self.emulator = emulator_cls(
            self.binary,
            externals=self.externals,
            cost_model=self.cost_model,
            controller=self.controller,
            policy=self.detection_policy,
            coverage=self.coverage,
            max_steps=self.config.max_steps,
            stack_protect=self.config.protect_stack,
            taint_sources_enabled=self.config.taint_sources_enabled,
            spec_models=self.spec_models,
            telemetry=self.config.telemetry,
        )

    def _build_spec_models(self):
        """Fresh speculation-model instances for ``config.variants``.

        ``None`` for the default PHT-only configuration, which keeps the
        emulator's classic zero-overhead path (and bit-identical golden
        outputs).
        """
        if tuple(self.config.variants) == ("pht",):
            return None
        from repro.specmodels import build_models

        return build_models(self.config.variants)

    def run(self, input_data: bytes, argv=None) -> ExecutionResult:
        """Execute the instrumented binary over one input."""
        return self.emulator.run(input_data, argv=argv)

    @property
    def engine(self) -> str:
        """Name of the emulator engine this runtime executes on."""
        return self.config.engine

    def with_engine(self, engine: str) -> "TeapotRuntime":
        """A fresh runtime over the same binary on a different engine."""
        return TeapotRuntime(
            self.binary,
            config=self.config.with_engine(engine),
            externals=self.externals,
            cost_model=self.cost_model,
        )

    def with_variants(self, *variants: str) -> "TeapotRuntime":
        """A fresh runtime simulating a different speculation-variant set."""
        return TeapotRuntime(
            self.binary,
            config=self.config.with_variants(*variants),
            externals=self.externals,
            cost_model=self.cost_model,
        )
