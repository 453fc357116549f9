"""The verdict record shared by the verification suites: one Check per
verdict, and the rules that decide it."""

import math
from dataclasses import dataclass, field

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

# how a check compares measured with reference; a categorical check is
# decided by a given verdict, not by a rule
UPPER = "upper"
LOWER = "lower"
TWO_SIDED = "two_sided"
CATEGORICAL = "categorical"


def one_sided_verdict(measured, reference, stderr, tol):
    """holds iff measured <= reference + 3*stderr + tol."""
    if math.isnan(measured) or math.isnan(reference):
        return INCONCLUSIVE
    if measured <= reference + 3.0 * stderr + tol:
        return HOLDS
    return VIOLATED


def two_sided_verdict(measured, reference, stderr, tol):
    """holds iff |measured - reference| <= 3*stderr + tol."""
    if math.isnan(measured) or math.isnan(reference):
        return INCONCLUSIVE
    if abs(measured - reference) <= 3.0 * stderr + tol:
        return HOLDS
    return VIOLATED


_RULES = {
    UPPER: one_sided_verdict,
    LOWER: lambda measured, reference, stderr, tol: one_sided_verdict(
        reference, measured, stderr, tol),
    TWO_SIDED: two_sided_verdict,
}


@dataclass
class Check:
    """One verdict: a measured value set against its reference.

    The verdict is the sidedness rule applied to (measured, reference,
    stderr, tol) unless it is given: an upper check holds iff measured <=
    reference + 3*stderr + tol, a lower one iff reference <= measured +
    3*stderr + tol, a two-sided one iff |measured - reference| <= 3*stderr +
    tol.  ``table`` and ``parameters`` name the check's row; ``details``
    holds what is not a verdict (witnesses, per-pair rows, certificates)."""

    table: str
    parameters: dict
    measured: float
    reference: float
    stderr: float = 0.0
    sidedness: str = UPPER
    tol: float = 0.0
    verdict: str | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict is None:
            self.verdict = _RULES[self.sidedness](
                self.measured, self.reference, self.stderr, self.tol)

    @property
    def tightness(self):
        """measured / reference; NaN where the reference is 0."""
        return self.measured / self.reference if self.reference else math.nan


def jsonable(v):
    """v with numpy values as Python ones and non-finite floats as the strings
    "inf", "-inf" and "nan", through dicts, lists and tuples: strict JSON."""
    if hasattr(v, "tolist"):
        v = v.tolist()
    if isinstance(v, float) and not math.isfinite(v):
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    if isinstance(v, dict):
        return {k: jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return v
