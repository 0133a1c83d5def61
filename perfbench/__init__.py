"""Benchmark for regenerating the paper's figure grid; see README.md."""
