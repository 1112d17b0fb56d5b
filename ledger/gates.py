"""Correctness gates whose reference does not come from the detector.

A run that fails a gate is invalid, not slow: ``run.py`` prints
``"correct": false`` and exits non-zero.

* ``gadgets``: the reference is the compiled driver itself.  Each planted
  Kocher sample of :mod:`repro.targets.gadget_samples` is the stretch of
  ``main`` from its ``attack_input()`` call to its last ``free()``; a
  report counts for a sample when its site (resolved to the vanilla
  function's architectural ordinal) falls inside that stretch.
* service campaigns: the campaign status record plus the ``gadgets``
  reference above for every report the campaign returns.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.disasm.disassembler import disassemble
from repro.hardening.sites import SiteResolver
from repro.isa.instructions import Opcode, is_pseudo
from repro.sanitizers.reports import GadgetReport
from repro.targets.gadget_samples import GADGET_TEMPLATES

Region = Tuple[int, int]


def sample_regions(vanilla, function: str = "main") -> List[Region]:
    """Inclusive architectural-ordinal range of every planted sample."""
    calls: List[Tuple[int, str]] = []
    ordinal = 0
    for instr in disassemble(vanilla).function(function).instructions():
        if is_pseudo(instr):
            continue
        if instr.opcode is Opcode.ECALL:
            calls.append((ordinal, instr.operands[0].name))
        ordinal += 1
    starts = [at for at, name in calls if name == "attack_input"]
    regions: List[Region] = []
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else ordinal
        frees = [at for at, name in calls
                 if name == "free" and start < at < end]
        if not frees:
            raise ValueError(f"sample at ordinal {start} has no free() call")
        regions.append((start, frees[-1]))
    if len(regions) != len(GADGET_TEMPLATES):
        raise ValueError(f"found {len(regions)} planted samples, expected "
                         f"{len(GADGET_TEMPLATES)}")
    return regions


def sample_of(regions: Sequence[Region], ordinal: int) -> Optional[int]:
    for index, (first, last) in enumerate(regions):
        if first <= ordinal <= last:
            return index
    return None


class SampleOracle:
    """Tracks which planted samples a stream of reports has covered.

    ``regions`` comes from :func:`sample_regions` of the vanilla driver;
    ``instrumented`` is the binary whose pcs the reports carry.
    """

    def __init__(self, regions: Sequence[Region], instrumented) -> None:
        self.regions = list(regions)
        self.resolver = SiteResolver(instrumented)
        self.hit: Set[int] = set()
        self.strays: List[int] = []
        self._seen: Set[int] = set()

    def observe(self, reports: Iterable[GadgetReport]) -> None:
        for report in reports:
            if report.pc in self._seen:
                continue
            self._seen.add(report.pc)
            site = self.resolver.resolve_pc(report.pc)
            index = (sample_of(self.regions, site.ordinal)
                     if site is not None and site.function == "main" else None)
            if index is None:
                self.strays.append(report.pc)
            else:
                self.hit.add(index)

    @property
    def complete(self) -> bool:
        return len(self.hit) == len(self.regions)

    def problems(self, required: Optional[Iterable[int]] = None) -> List[str]:
        """Gate failures: missing required samples, reports outside them."""
        wanted = set(range(len(self.regions)) if required is None
                     else required)
        out = [f"planted sample {index} was never reported"
               for index in sorted(wanted - self.hit)]
        out += [f"report at pc {pc:#x} lies outside every planted sample"
                for pc in self.strays]
        return out


#: samples every service campaign must report.  The target's seed inputs
#: dispatch straight into samples 0, 2 and 3; sample 1 (the masked index)
#: needs a rare two-byte mutation, so a small campaign is not expected to
#: reach it.  gadgets-fuzz gates all four.
SERVICE_REQUIRED_SAMPLES = (0, 2, 3)


def campaign_problems(status: Mapping[str, object],
                      reports: Mapping[str, Sequence[Dict[str, object]]],
                      new_oracle: Callable[[str], SampleOracle]) -> List[str]:
    """Gate one finished service campaign.

    ``status`` is the ``GET /v1/campaigns/<id>`` record, ``reports`` the
    ``groups`` of ``GET /v1/campaigns/<id>/reports`` and ``new_oracle``
    makes a fresh :class:`SampleOracle` for a tool (each tool's reports
    carry pcs of its own instrumented binary).
    """
    campaign = status.get("campaign_id", "?")
    if status.get("status") != "completed":
        return [f"campaign {campaign} ended {status.get('status')!r}"
                f" ({status.get('error', '')})"]
    problems: List[str] = []
    summary = status.get("summary") or {}
    failed = sum(int(group.get("failed_jobs", 0))
                 for group in summary.get("groups", []))
    if failed:
        problems.append(f"campaign {campaign} has {failed} failed job(s)")
    for group, records in reports.items():
        tool = group.split("/")[1]
        oracle = new_oracle(tool)
        oracle.observe(GadgetReport.from_dict(record) for record in records)
        required = SERVICE_REQUIRED_SAMPLES if tool == "teapot" else ()
        problems += [f"campaign {campaign} {tool}: {problem}"
                     for problem in oracle.problems(required)]
    if not any(group.split("/")[1] == "teapot" for group in reports):
        problems.append(f"campaign {campaign} returned no teapot reports")
    return problems
