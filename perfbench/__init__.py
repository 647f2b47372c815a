"""Benchmark of the kohnmult engine; see run.py and NOTES.md."""
