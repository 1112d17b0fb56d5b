"""Hardening: report-guided mitigation synthesis and verification.

This package closes the detect → patch → verify loop of the paper's
workflow: a fuzzing campaign produces :class:`~repro.sanitizers.reports.
GadgetReport` records, :mod:`repro.hardening.sites` resolves their program
counters back to instruction positions in the *uninstrumented* binary,
:mod:`repro.hardening.passes` synthesises a mitigation (targeted fences,
SLH-style load masking, or the fence-every-branch baseline) through the
ordinary rewriting pipeline, and :mod:`repro.hardening.pipeline` re-runs
the campaign on the hardened binary to prove the reported sites are gone —
while accounting the cycle overhead each strategy costs.  The
:mod:`repro.api` pipeline (and ``repro harden``) drives these steps.
"""

from repro.hardening.passes import (
    STRATEGIES,
    FenceAllBranchesPass,
    FenceAtSitePass,
    HardeningError,
    MaskLoadPass,
    strategy_names,
    strategy_pass,
)
from repro.hardening.pipeline import (
    HardeningResult,
    PatchOutcome,
    VerifyOutcome,
    harden_module,
    measure_cycles,
    patch_binary,
    verify_patch,
)
from repro.hardening.sites import (
    GadgetSite,
    SiteResolver,
    locate_site,
    ordinal_translation,
    resolve_sites,
    snapshot_architectural,
)

__all__ = [
    "STRATEGIES",
    "FenceAllBranchesPass",
    "FenceAtSitePass",
    "HardeningError",
    "MaskLoadPass",
    "strategy_names",
    "strategy_pass",
    "HardeningResult",
    "PatchOutcome",
    "VerifyOutcome",
    "harden_module",
    "measure_cycles",
    "patch_binary",
    "verify_patch",
    "GadgetSite",
    "SiteResolver",
    "locate_site",
    "ordinal_translation",
    "resolve_sites",
    "snapshot_architectural",
]
