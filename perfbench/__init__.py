"""Host-cost benchmark of the simulator and control plane.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON result line; see
``run.py`` for the metrics and ``workloads.py`` for the workloads.
"""
