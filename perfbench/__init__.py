"""The repository's end-to-end benchmark (see ``WORKLOADS.md``).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one seeded workload against the package under
``src/`` and prints its metrics, the last line as one JSON object.
"""
