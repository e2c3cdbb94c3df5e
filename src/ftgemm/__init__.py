"""Checksum-protected GEMM with approximate detection/localization/correction
and a seeded soft-error fault-injection campaign around a toy transformer."""

__version__ = "0.1.0"
