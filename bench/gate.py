"""Correctness gate for boundlab reports.

A report passes when it parses, and when every residual column is a
certificate (finite and at most the run's ``--tol``).  With a reference
report, each record must also match the reference record by record:
strings, booleans, ``null`` and integers exactly, floats within
``REL_TOL`` relative (``ABS_TOL`` absolute for margins near zero).  The
header ``config`` must match exactly; the package version is not compared.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-6
ABS_TOL = 1e-10
CERTIFICATE_COLUMNS = ("weak_residual",)


def _same_value(got, want):
    numeric = (int, float)
    if isinstance(got, bool) or isinstance(want, bool):
        return got is want
    if isinstance(got, numeric) and isinstance(want, numeric):
        if isinstance(got, int) and isinstance(want, int):
            return got == want
        # the report prints floats with %.17g, so an integral float reads back as int
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return type(got) is type(want) and got == want


def certificate_problems(doc):
    """Residual columns that are not finite or exceed the run's tolerance."""
    tol = doc["header"]["config"]["tol"]
    problems = []
    for i, record in enumerate(doc["records"]):
        for column in CERTIFICATE_COLUMNS:
            if column in record:
                value = record[column]
                if not isinstance(value, (int, float)) or not math.isfinite(value) or value > tol:
                    problems.append(f"record {i}: {column}={value!r} is not <= tol {tol!r}")
    return problems


def reference_problems(doc, reference):
    """Differences between a report and its reference, record by record."""
    problems = []
    if doc["header"]["config"] != reference["header"]["config"]:
        problems.append("header config differs from the reference")
    got, want = doc["records"], reference["records"]
    if len(got) != len(want):
        problems.append(f"{len(got)} records, reference has {len(want)}")
    for i, (rec, ref) in enumerate(zip(got, want)):
        if list(rec) != list(ref):
            problems.append(f"record {i}: fields {list(rec)} != reference {list(ref)}")
            continue
        for key in rec:
            if key in CERTIFICATE_COLUMNS:
                continue
            if not _same_value(rec[key], ref[key]):
                problems.append(f"record {i}: {key}={rec[key]!r}, reference {ref[key]!r}")
    return problems


def check_report(text, reference=None):
    """All problems found in one report's text; an empty list means it passes."""
    try:
        doc = json.loads(text)
        problems = certificate_problems(doc)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc!r}"]
    if not doc["records"]:
        return ["report has no records"]
    if reference is not None:
        problems += reference_problems(doc, reference)
    return problems
