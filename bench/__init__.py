"""The repository's benchmark: four workloads, one metric vocabulary.

See ``bench/README.md`` for the metric catalogue and ``BENCHMARK.json``
at the repository root for the contract the driver checks.
"""
