"""Gadget detection policies (paper §6.2, Fig. 6).

Teapot decouples its architecture from the detection policy; this module
implements three policies behind a common interface:

:class:`KasperPolicy`
    the policy Teapot adopts (paper Fig. 6).  It tracks attacker-direct
    (*User*) and attacker-indirect (*Massage*) data with DIFT, promotes
    values loaded through attacker-controlled out-of-bounds or wild-pointer
    accesses to *secret*, and reports a gadget when a secret is loaded
    (MDS), used to compose a dereferenced pointer (Cache) or influences a
    conditional branch (Port).
:class:`SpecFuzzPolicy`
    SpecFuzz's policy: every speculative out-of-bounds access is a gadget.
    No data-flow tracking, hence the large false-positive counts in the
    paper's Tables 3 and 4.
:class:`SpecTaintPolicy`
    SpecTaint's policy: working at the whole-system level it cannot tell
    out-of-bounds from legal accesses, so every *user-controlled* memory
    access is assumed to load a secret; leaking that value through a
    dereference reports a gadget.  No Massage tracking, no OOB requirement.

The emulator invokes policy callbacks when instrumentation pseudo-ops
execute inside speculation simulation; the policy emits
:class:`~repro.sanitizers.reports.GadgetReport` records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import Instruction
from repro.isa.operands import Mem
from repro.sanitizers.asan import BinaryAsan
from repro.sanitizers.dift import (
    BinaryDift,
    TAG_ANY_SECRET,
    TAG_MASSAGE,
    TAG_SECRET_MASSAGE,
    TAG_SECRET_USER,
    TAG_USER,
)
from repro.sanitizers.reports import AttackerClass, Channel, GadgetReport

#: Conditions a policy may name in :attr:`DetectionPolicy.speculative_noops`:
#:
#: ``"address_untainted"``
#:     (access hook) every register of the effective address has DIFT tag 0;
#: ``"in_bounds"``
#:     (access hook) ``asan.check_access(addr, size)`` holds.  The compiled
#:     engines test a conservative form: a user-memory address on a fully
#:     mapped page, no page crossing, and zero ASan shadow bytes;
#: ``"flags_not_secret"``
#:     (branch hook) ``dift.flags_tag`` carries no secret bit.
NOOP_CONDITIONS = frozenset({"address_untainted", "in_bounds",
                             "flags_not_secret"})


def noop_conditions(policy: "DetectionPolicy",
                    hook: str) -> Optional[Tuple[str, ...]]:
    """The conditions under which ``policy``'s ``hook`` does nothing.

    The declaration counts only when it sits in the same class body as
    the hook's implementation: a subclass that overrides a hook without
    re-declaring it (or patches it onto the instance) gets ``None``, and
    so does a declaration naming a condition outside
    :data:`NOOP_CONDITIONS`.  ``None`` means "call the hook every time";
    ``()`` means the hook never needs a call.
    """
    if hook in vars(policy):
        return None
    for klass in type(policy).__mro__:
        if hook in vars(klass):
            declared = vars(klass).get("speculative_noops", {})
            conditions = declared.get(hook)
            if conditions is None or not NOOP_CONDITIONS.issuperset(conditions):
                return None
            return tuple(sorted(conditions))
    return None


class DetectionPolicy:
    """Base class: no-op policy (used for pure performance runs)."""

    #: name recorded in reports
    tool_name = "none"
    #: whether the policy needs ASan checks inserted
    needs_asan = False
    #: whether the policy needs DIFT propagation
    needs_dift = False
    #: When each speculative callback is a no-op, as data: ``{hook name:
    #: conditions}``.  Whenever every named condition (see
    #: :data:`NOOP_CONDITIONS`) holds, the hook neither reports, promotes
    #: nor changes any state, so the compiled engines test the conditions
    #: inline and skip the call.  ``()`` means the hook never does
    #: anything.  A declaration covers only the hooks defined in the same
    #: class body (see :func:`noop_conditions`).
    speculative_noops: Dict[str, Tuple[str, ...]] = {
        "on_speculative_access": (),
        "on_speculative_branch": (),
    }

    def __init__(self) -> None:
        self.reports: List[GadgetReport] = []
        self.asan: Optional[BinaryAsan] = None
        self.dift: Optional[BinaryDift] = None

    # -- wiring -------------------------------------------------------------
    def attach(self, asan: Optional[BinaryAsan], dift: Optional[BinaryDift]) -> None:
        """Attach the sanitizer instances the emulator created."""
        self.asan = asan
        self.dift = dift

    def _report(
        self,
        channel: Channel,
        attacker: AttackerClass,
        pc: int,
        branch_addresses: Tuple[int, ...],
        depth: int,
        description: str = "",
        variant: str = "pht",
    ) -> GadgetReport:
        report = GadgetReport(
            tool=self.tool_name,
            channel=channel,
            attacker=attacker,
            pc=pc,
            branch_addresses=branch_addresses,
            depth=depth,
            description=description,
            variant=variant,
        )
        self.reports.append(report)
        return report

    @staticmethod
    def _variant(context) -> str:
        """Speculation variant of the innermost simulation of ``context``
        (the speculation controller); ``"pht"`` for controllers predating
        the model subsystem."""
        return getattr(context, "current_model", "pht")

    def drain_reports(self) -> List[GadgetReport]:
        """Return and clear the accumulated reports."""
        reports, self.reports = self.reports, []
        return reports

    # -- callbacks (defaults: do nothing) --------------------------------------
    def on_speculative_access(
        self,
        instr: Instruction,
        mem: Mem,
        addr: int,
        size: int,
        is_write: bool,
        machine,
        context,
    ) -> int:
        """Called for each instrumented memory access in the Shadow Copy.

        Returns tag bits to union into the destination of a load (secret
        promotion); ``0`` when nothing should be promoted.
        """
        return 0

    def on_speculative_branch(self, instr: Instruction, machine, context) -> None:
        """Called before each conditional branch in the Shadow Copy."""

    def reset(self) -> None:
        """Clear accumulated reports (between fuzzing campaigns)."""
        self.reports.clear()


class KasperPolicy(DetectionPolicy):
    """Teapot's default policy: the Kasper policy of paper Fig. 6."""

    tool_name = "teapot"
    needs_asan = True
    needs_dift = True
    # An untainted in-bounds access reports nothing and promotes nothing;
    # a branch only reports on a secret flags tag.
    speculative_noops = {
        "on_speculative_access": ("address_untainted", "in_bounds"),
        "on_speculative_branch": ("flags_not_secret",),
    }

    def __init__(self, massage_enabled: bool = True) -> None:
        super().__init__()
        #: whether speculative OOB outcomes become attacker-indirect data;
        #: Table 3 disables this to avoid noise from non-injected gadgets.
        self.massage_enabled = massage_enabled

    # -- helpers ------------------------------------------------------------------
    @staticmethod
    def _attacker_from_secret(tag: int) -> AttackerClass:
        if tag & TAG_SECRET_USER:
            return AttackerClass.USER
        return AttackerClass.MASSAGE

    def on_speculative_access(self, instr, mem, addr, size, is_write, machine, context):
        assert self.dift is not None and self.asan is not None
        addr_tag = self.dift.address_tag(mem, machine)
        promoted = 0
        pc = instr.address if instr.address is not None else 0

        # Secret used to compose a dereferenced pointer -> cache transmitter.
        if addr_tag & TAG_ANY_SECRET:
            self._report(
                Channel.CACHE,
                self._attacker_from_secret(addr_tag),
                pc,
                context.branch_addresses,
                context.depth,
                "secret-dependent pointer dereference",
                variant=self._variant(context),
            )

        in_bounds = self.asan.check_access(addr, size)

        if not is_write:
            if addr_tag & TAG_USER and not in_bounds:
                # Attacker-directly controlled out-of-bounds load: the loaded
                # value is a secret and is immediately MDS-leakable.
                promoted |= TAG_SECRET_USER
                self._report(
                    Channel.MDS,
                    AttackerClass.USER,
                    pc,
                    context.branch_addresses,
                    context.depth,
                    "attacker-direct out-of-bounds load",
                    variant=self._variant(context),
                )
            elif addr_tag & TAG_MASSAGE:
                # Wild pointer constructed from a speculative OOB value: any
                # access through it loads a secret.
                promoted |= TAG_SECRET_MASSAGE
                self._report(
                    Channel.MDS,
                    AttackerClass.MASSAGE,
                    pc,
                    context.branch_addresses,
                    context.depth,
                    "attacker-indirect (massaged) pointer load",
                    variant=self._variant(context),
                )
            elif self.massage_enabled and not in_bounds:
                # Speculative OOB with an untainted pointer: the outcome is
                # attacker-indirectly controlled (it may be massaged).
                promoted |= TAG_MASSAGE
        return promoted

    def on_speculative_branch(self, instr, machine, context):
        assert self.dift is not None
        if self.dift.flags_tag & TAG_ANY_SECRET:
            self._report(
                Channel.PORT,
                self._attacker_from_secret(self.dift.flags_tag),
                instr.address if instr.address is not None else 0,
                context.branch_addresses,
                context.depth,
                "secret-dependent branch (port contention)",
                variant=self._variant(context),
            )


class SpecFuzzPolicy(DetectionPolicy):
    """SpecFuzz's ASan-only policy: every speculative OOB access is a gadget."""

    tool_name = "specfuzz"
    needs_asan = True
    needs_dift = False
    speculative_noops = {"on_speculative_access": ("in_bounds",)}

    def on_speculative_access(self, instr, mem, addr, size, is_write, machine, context):
        assert self.asan is not None
        if not self.asan.check_access(addr, size):
            self._report(
                Channel.MDS,
                AttackerClass.UNKNOWN,
                instr.address if instr.address is not None else 0,
                context.branch_addresses,
                context.depth,
                "speculative out-of-bounds access",
                variant=self._variant(context),
            )
        return 0


class SpecTaintPolicy(DetectionPolicy):
    """SpecTaint's taint-only policy (no program-level bounds information).

    Every memory access whose address is user-controlled is assumed to load
    a secret; a subsequent dereference of that value reports a gadget.
    """

    tool_name = "spectaint"
    needs_asan = False
    needs_dift = True
    speculative_noops = {"on_speculative_access": ("address_untainted",)}

    def on_speculative_access(self, instr, mem, addr, size, is_write, machine, context):
        assert self.dift is not None
        addr_tag = self.dift.address_tag(mem, machine)
        pc = instr.address if instr.address is not None else 0
        promoted = 0
        if addr_tag & TAG_ANY_SECRET:
            self._report(
                Channel.CACHE,
                AttackerClass.USER,
                pc,
                context.branch_addresses,
                context.depth,
                "secret-dependent pointer dereference (no bounds check)",
                variant=self._variant(context),
            )
        if not is_write and addr_tag & TAG_USER:
            # Without heap/stack layout knowledge the tool must assume every
            # user-controlled access loads a secret.
            promoted |= TAG_SECRET_USER
        return promoted
