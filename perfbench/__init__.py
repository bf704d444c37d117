"""The repository's outside-in benchmark.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON result line; see
``perfbench/README.md`` for the workloads and metrics.  The benchmark
only calls the program's public functions and never changes ``src/``.
"""
