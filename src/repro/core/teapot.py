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
from repro.specmodels import build_models


class Rewriter:
    """A detector's static rewriting: disassemble → passes → reassemble.

    A tool supplies its ``tool_name``, its ``config_type`` (the
    configuration used when none is given) and :meth:`build_pass_manager`.
    """

    tool_name = ""
    config_type: type

    def __init__(self, config=None) -> None:
        self.config = config if config is not None else self.config_type()
        #: per-pass statistics of the last :meth:`instrument` invocation.
        self.last_stats: Dict[str, Dict[str, int]] = {}

    def instrument_module(self, module: Module) -> Module:
        """Run the pass pipeline over an already-disassembled module."""
        manager = self.build_pass_manager()
        self.last_stats = manager.run(module)
        module.metadata["tool"] = self.tool_name
        return module

    def instrument(self, binary: TelfBinary) -> TelfBinary:
        """Disassemble, instrument and reassemble a COTS binary."""
        return reassemble(self.instrument_module(disassemble(binary)))


class TeapotRewriter(Rewriter):
    """Static binary rewriter implementing Speculation Shadows."""

    tool_name = "teapot"
    config_type = TeapotConfig

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


@dataclass
class InstrumentedRuntime:
    """Everything needed to execute a binary instrumented by a detector.

    Built once from ``config``, in this order: the tool's nesting policy
    (or none, without nested speculation), the engine's controller from
    :func:`~repro.runtime.fastpath.resolve_engine`, the tool's detection
    policy, the coverage maps, the speculation models and the emulator.
    A tool supplies only ``build_nesting_policy()`` (the policy when
    nesting is on), ``build_detection_policy()`` and, beyond the shared
    emulator keywords, its :meth:`emulator_options`.
    """

    binary: TelfBinary
    config: object = None
    externals: Optional[ExternalRegistry] = None
    cost_model: CostModel = field(default_factory=lambda: DEFAULT_COSTS)

    def __post_init__(self) -> None:
        config = self.config
        policy = (self.build_nesting_policy() if config.nested_speculation
                  else DisabledNestingPolicy())
        emulator_cls, controller_cls = resolve_engine(config.engine)
        self.controller = controller_cls(policy, rob_budget=config.rob_budget)
        self.detection_policy = self.build_detection_policy()
        self.coverage = CoverageRuntime()
        # None for the default PHT-only configuration keeps the
        # emulator's classic zero-overhead path.
        self.spec_models = (None if tuple(config.variants) == ("pht",)
                            else build_models(config.variants))
        self.emulator = emulator_cls(
            self.binary,
            externals=self.externals,
            cost_model=self.cost_model,
            controller=self.controller,
            policy=self.detection_policy,
            coverage=self.coverage,
            max_steps=config.max_steps,
            spec_models=self.spec_models,
            telemetry=config.telemetry,
            **self.emulator_options(),
        )

    def emulator_options(self) -> Dict[str, object]:
        """Emulator keywords of this tool beyond the shared ones."""
        return {}

    def run(self, input_data: bytes, argv=None) -> ExecutionResult:
        """Execute the instrumented binary over one input."""
        return self.emulator.run(input_data, argv=argv)


@dataclass
class TeapotRuntime(InstrumentedRuntime):
    """Bundles everything needed to execute a Teapot-instrumented binary.

    This is the runtime support the fuzzer drives: the speculation
    controller with Teapot's nesting heuristic, the Kasper detection
    policy, and the two coverage maps.
    """

    config: TeapotConfig = field(default_factory=TeapotConfig)

    def build_nesting_policy(self):
        return TeapotNestingPolicy(max_depth=self.config.max_depth,
                                   eager_runs=self.config.eager_runs,
                                   ramp=self.config.specfuzz_ramp)

    def build_detection_policy(self):
        return KasperPolicy(massage_enabled=self.config.massage_enabled)

    def emulator_options(self) -> Dict[str, object]:
        return {"stack_protect": self.config.protect_stack,
                "taint_sources_enabled": self.config.taint_sources_enabled}
