"""The repository benchmark: seeded open-loop workloads over the public API.

``python bench/run.py --help`` describes the command; ``bench/README.md``
defines every workload and metric name.
"""
