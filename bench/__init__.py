"""Benchmark of record for the reproduction (see bench/README.md)."""
