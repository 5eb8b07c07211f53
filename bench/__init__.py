"""The repeatable benchmark: four workloads, exact counts beside best-block timings.

``python3 bench/run.py --workload <name> --seed N --seconds S --trace 0|1``
is the one command; ``bench/README.md`` is the metric dictionary.
"""
