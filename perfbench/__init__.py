"""The repository's benchmark: modeled and host time, end to end and per layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (:mod:`perfbench.workloads`) and prints
one JSON result line.  See ``perfbench/README.md``.
"""
