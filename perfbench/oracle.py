"""Expected violations, and the comparisons every operation's output must pass.

The oracle never calls the program: expected sets come from the list
``inject_violations`` returned while the inputs were generated (the base
designs are clean, see ``confirm_clean.py``), shifted by each edit, and
query answers are recomputed here from the last full report.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence

Key = tuple


def key(v: Dict, rule: Optional[str] = None) -> Key:
    """The identity of one violation: rule, kind, layers, region, values."""
    return (
        rule or v["rule"], v["kind"], v["layer"], v.get("other_layer"),
        tuple(v["region"]), v["measured"], v["required"],
    )


def report_keys(payload: Dict) -> Counter:
    """Every violation of a report payload (``CheckReport.to_json``)."""
    return Counter(key(v, r["rule"]) for r in payload["results"] for v in r["violations"])


def expected_keys(violations: Iterable[Dict]) -> Counter:
    return Counter(key(v) for v in violations)


def mismatch(got: Counter, want: Counter) -> Optional[str]:
    """None when equal; otherwise a one-line account of the difference."""
    if got == want:
        return None
    extra = sorted((got - want).elements())[:3]
    missing = sorted((want - got).elements())[:3]
    return f"{sum((got - want).values())} unexpected {extra}, {sum((want - got).values())} missing {missing}"


def shifted(violations: Iterable[Dict], dx: int, dy: int) -> List[Dict]:
    out = []
    for v in violations:
        x0, y0, x1, y1 = v["region"]
        out.append(dict(v, region=[x0 + dx, y0 + dy, x1 + dx, y1 + dy]))
    return out


def box_around(v: Dict, margin: int = 50) -> List[int]:
    """A query box around one violation's marker."""
    x0, y0, x1, y1 = v["region"]
    return [x0 - margin, y0 - margin, x1 + margin, y1 + margin]


def _overlaps(a: Sequence[int], b: Sequence[int]) -> bool:
    """Closed boxes that touch overlap."""
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def query(payload: Dict, *, severity=None, rules=None, bbox=None) -> Counter:
    """The answer a violation query must give, recomputed from a report payload."""
    out = Counter()
    for result in payload["results"]:
        if severity is not None and result.get("severity", "error") != severity:
            continue
        if rules is not None and result["rule"] not in rules:
            continue
        for v in result["violations"]:
            if bbox is None or _overlaps(bbox, v["region"]):
                out[key(v, result["rule"])] += 1
    return out


def listing_keys(items: Iterable[Dict]) -> Counter:
    """A flat ``/violations`` listing (each item carries its rule)."""
    return Counter(key(v) for v in items)
