"""The repository benchmark: four overlay workloads, one command.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; see
:mod:`perfbench.run` for the metric definitions and ``BENCHMARK.json``
for the workload list.  The package is importable (``perfbench.algos``)
so cluster worker processes can construct the benchmark's algorithms.
"""
