"""Benchmark of provar: seeded workloads, oracles and a per-module trace."""
