"""Deterministic on-device PII substitution with an evaluation harness."""
