"""Report records shared by the verification suites."""

import math
from dataclasses import dataclass, field

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass
class BoundReport:
    """An evaluated constant next to an empirical measurement and a verdict."""

    bound_name: str
    parameters: dict
    theoretical_value: float
    empirical_value: float
    stderr: float = 0.0
    verdict: str = INCONCLUSIVE
    witness: tuple | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {"record": "bound_report", **vars(self)}


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


def one_sided_verdict(empirical, theoretical, stderr=0.0, tol=0.0):
    """holds iff empirical <= theoretical + 3*stderr + tol."""
    if math.isnan(empirical) or math.isnan(theoretical):
        return INCONCLUSIVE
    if empirical <= theoretical + 3.0 * stderr + tol:
        return HOLDS
    return VIOLATED


def two_sided_verdict(empirical, target, stderr=0.0, tol=0.0):
    """holds iff |empirical - target| <= 3*stderr + tol."""
    if math.isnan(empirical) or math.isnan(target):
        return INCONCLUSIVE
    if abs(empirical - target) <= 3.0 * stderr + tol:
        return HOLDS
    return VIOLATED
