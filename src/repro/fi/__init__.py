"""Application-level fault injection (the F-SEFI / P-FSEFI analogue).

The package implements the paper's fault-injection methodology (§2):

* :mod:`repro.fi.profile` — dynamic-instruction accounting per rank,
  region and instruction kind (profiling pass);
* :mod:`repro.fi.plan` — sampling of injection plans: a uniformly random
  dynamic FP add/multiply instruction, a random operand, a random bit;
* :mod:`repro.fi.tracer` — the :class:`~repro.taint.tracer_api.TraceSink`
  that counts instructions and fires planned flips during execution;
* :mod:`repro.fi.outcomes` — the three-way outcome classification
  (Success / SDC / Failure) of §2;
* :mod:`repro.fi.scenarios` — pluggable fault-scenario families: the
  default transient bit flips plus rank fail-stop and in-transit
  message corruption (see ``docs/scenarios.md``);
* :mod:`repro.fi.campaign` — fault-injection *deployments*: many trials
  with a fixed configuration, aggregated into rates and propagation
  histograms.
* :mod:`repro.fi.knobs` — the execution-knob table (jobs, lanes,
  checkpointing, precision target, scenario, backend) and its
  arg > field > env > default resolution.
"""

from repro.fi.profile import InstructionProfile
from repro.fi.plan import PlannedFlip, InjectionPlan, sample_plan
from repro.fi.tracer import Tracer, TracerMode
from repro.fi.outcomes import Outcome, TrialRecord, classify_outcome
from repro.fi.scenarios import (
    SCENARIOS,
    BitFlipModel,
    FaultModel,
    MessageCorruptionModel,
    RankKillModel,
    canonical_scenario,
    resolve_model,
)
from repro.fi.campaign import Deployment, CampaignResult, run_campaign

__all__ = [
    "InstructionProfile",
    "PlannedFlip",
    "InjectionPlan",
    "sample_plan",
    "Tracer",
    "TracerMode",
    "Outcome",
    "TrialRecord",
    "classify_outcome",
    "SCENARIOS",
    "FaultModel",
    "BitFlipModel",
    "RankKillModel",
    "MessageCorruptionModel",
    "canonical_scenario",
    "resolve_model",
    "Deployment",
    "CampaignResult",
    "run_campaign",
]
