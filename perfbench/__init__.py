"""Benchmark of edgediag: cloud training, edge transfer and edge inference.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload; see ``run.py``. The workloads are in ``workloads.py``,
the span tracer in ``trace.py``, the per-module microbenches in
``micro.py`` and the run assembly in ``bench.py``.
"""
