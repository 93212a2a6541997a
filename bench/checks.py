"""Correctness checks on the JSON reports the ``secradius`` CLI writes.

Checks compare numbers within tolerances, never bytes, so a refactor whose
results move within the solver tolerance still passes.  Each check returns
a list of failure messages; the number of values checked is counted too,
so the benchmark can report failed / attempted.
"""

from __future__ import annotations

import math

# The paper's constants with the tolerances of the report items that
# reproduce them.
FROZEN_CONSTANTS = {
    "min_g": (0.25, 1e-10),
    "min_T": (1.0 / 12.0, 1e-10),
    "min_re_cube_kernel_1/3": (27.0 / 64.0, 1e-9),
    "n4_margin": (145.0 / 1728.0, 1e-9),
    "sharpness_s2_re_deriv_radius": (1.0 / 3.0, 1e-6),
    "sharpness_s2_convexity_radius": (1.0 / 6.0, 1e-6),
    "sharpness_s3_re_deriv_radius": (math.sqrt(13.0 / 96.0), 1e-6),
}


class Checker:
    """Counts checked values and collects the messages of failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def close(self, name: str, value, expected: float, tol: float) -> None:
        ok = isinstance(value, (int, float)) and abs(value - expected) <= tol
        self.expect(ok, f"{name} = {value!r}, expected {expected!r} within {tol!r}")


def items_by_name(report: dict) -> dict:
    return {item["name"]: item for item in report["items"]}


def reference_values(workload: str, report: dict) -> dict:
    """Radii and margins of a report that are compared against references."""
    items = items_by_name(report)
    if workload == "verify":
        return {name: item["computed"] for name, item in items.items()}
    if workload == "conjecture2":
        keys = ("conjecture2_min_starlike_radius", "conjecture2_f0_n2_radius")
        return {name: items[name]["computed"] for name in keys}
    return {
        name: item["computed"]
        for name, item in items.items()
        if name.startswith("classical_radius_")
    }


def check_report(
    check: Checker,
    workload: str,
    report: dict,
    rc: int,
    tol: float,
    params: dict,
    reference: dict | None,
) -> None:
    """Invariant checks for one report, plus a reference comparison when
    reference values exist for this exact command line."""
    check.expect(rc == 0, f"exit code {rc}, expected 0")
    items = items_by_name(report)
    for key, expected in params.items():
        got = report["seed"] if key == "seed" else report["parameters"].get(key)
        check.expect(got == expected, f"report {key} = {got!r}, expected {expected!r}")
    if workload == "verify":
        for item in report["items"]:
            check.expect(item["pass"] is True, f"item {item['name']} failed")
        for name, (value, item_tol) in FROZEN_CONSTANTS.items():
            check.close(name, items.get(name, {}).get("computed"), value, item_tol)
    elif workload == "conjecture2":
        found = report["parameters"].get("counterexample_found")
        check.expect(found is False, f"counterexample_found = {found!r}")
        f0_n2 = items.get("conjecture2_f0_n2_radius", {}).get("computed")
        check.close("conjecture2_f0_n2_radius", f0_n2, 1.0 / 3.0, tol)
    else:
        violations = [i for n, i in items.items() if n.startswith("classical_violation_")]
        check.expect(len(violations) == 36, f"{len(violations)} violation items, expected 36")
        for item in violations:
            check.expect(item["computed"] == 0.0, f"{item['name']} = {item['computed']!r}")
    if reference is not None:
        got = reference_values(workload, report)
        check.expect(got.keys() == reference.keys(), "reference item names differ")
        for name, value in reference.items():
            check.close(f"{name} vs reference", got.get(name), value, tol)
