"""Benchmark for the noisylab CLI; see README.md in this directory."""
