"""Benchmark of Raven inference queries: two workloads driven through
the ``Raven`` facade on a local Spark session (see ``README.md``)."""
