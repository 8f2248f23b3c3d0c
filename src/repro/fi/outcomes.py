"""Three-way outcome classification of a fault-injection test (paper §2).

* ``SUCCESS`` — output identical to the fault-free run, **or** different
  but accepted by the application's own verification checker;
* ``SDC`` — silent data corruption: output differs and fails the checker;
* ``FAILURE`` — the application crashed or hung (simulated via
  :class:`repro.errors.FaultActivatedError` and scheduler deadlock).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.taint.tarray import arrays_equal

__all__ = ["Outcome", "TrialRecord", "classify_outcome", "outputs_identical"]

#: An application's final output: named scalars / arrays from rank 0.
AppOutput = Mapping[str, "np.ndarray | float"]


class Outcome(enum.Enum):
    SUCCESS = "success"
    SDC = "sdc"
    FAILURE = "failure"


@dataclass(frozen=True)
class TrialRecord:
    """One fault-injection test's result."""

    outcome: Outcome
    n_contaminated: int
    activated: bool          # did every planned flip actually fire?
    detail: str = ""


def outputs_identical(output: AppOutput, reference: AppOutput) -> bool:
    """Exact (NaN-aware) equality of two application outputs."""
    if set(output.keys()) != set(reference.keys()):
        return False
    for key, ref in reference.items():
        got = np.asarray(output[key], dtype=np.float64)
        if not arrays_equal(got, np.asarray(ref, dtype=np.float64)):
            return False
    return True


def classify_outcome(
    output: AppOutput,
    reference: AppOutput,
    verifier: Callable[[AppOutput, AppOutput], bool],
) -> Outcome:
    """Classify a completed run (crashes/hangs are classified upstream).

    ``verifier`` is the application's checker: given the trial output and
    the fault-free reference it decides whether the result is still a
    valid answer (paper: "passes the application checkers").
    """
    if outputs_identical(output, reference):
        return Outcome.SUCCESS
    return Outcome.SUCCESS if verifier(output, reference) else Outcome.SDC
