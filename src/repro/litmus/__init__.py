"""Litmus tests: conditions, catalogue, generators, runners.

Public names resolve on first use (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".conditions": (
            "And",
            "Condition",
            "MemEq",
            "Not",
            "Or",
            "RegEq",
            "TrueCond",
            "cond_and",
            "cond_or",
            "parse_condition",
        ),
        ".test": ("LitmusTest", "Verdict", "allowed"),
        ".catalogue": ("all_tests", "get_test", "tests_by_name"),
        ".cycles": (
            "Coe",
            "Coi",
            "Cycle",
            "CycleError",
            "Edge",
            "FAMILIES",
            "Family",
            "Fre",
            "Fri",
            "Rfe",
            "Rfi",
            "Slot",
            "get_family",
            "po",
        ),
        ".synth": (
            "attach_expected",
            "canonical_fingerprint",
            "generate_cycle_battery",
            "generate_cycles",
            "synthesize",
        ),
        ".generators": (
            "Linkage",
            "generate_battery",
            "generate_lb",
            "generate_mp",
            "generate_s",
            "generate_sb",
            "generate_wrc",
        ),
        ".runner": (
            "AgreementReport",
            "RunResult",
            "check_agreement",
            "run_axiomatic",
            "run_flat",
            "run_promising",
        ),
    },
)
