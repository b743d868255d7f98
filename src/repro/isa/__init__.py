"""ARMv8 and RISC-V assembly front ends (the Sail-ISA-model substitute).

Public names resolve on first use (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".ir": (
            "Branch",
            "IrInstr",
            "StraightLine",
            "StructurisationError",
            "ThreadIr",
            "straight_line_program",
            "structurise",
        ),
        ".armv8": ("Armv8ParseError",),
        ".riscv": ("RiscvParseError",),
        ".assembler": (
            "ThreadSource",
            "assemble_program",
            "assemble_thread",
            "assembly_line_count",
            "normalise_register",
            "parse_thread",
        ),
    },
)
