"""Experiment harnesses: one module per figure of the paper's evaluation,
plus the experiments this reproduction adds along the same axes.

Each ``run_*`` function returns a :class:`~repro.experiments.report.FigureResult`
holding the series the corresponding paper figure plots, so the benchmark
suite (``benchmarks/``), ``repro figures`` and the examples all consume the
same code path.  Everything here runs on the *simulated* clock — the
operation mix priced by ``CostModel``; wall clock is ``moistbench/``'s job.

| Module                    | Paper figure | What it reproduces                          |
|---------------------------|--------------|---------------------------------------------|
| ``fig09_schools``         | Fig. 9(a-c)  | #object schools vs ε, population and time    |
| ``fig10_clustering``      | Fig. 10(a,b) | per-clustering latency breakdown             |
| ``fig11_cluster_frequency``| Fig. 11     | NN QPS vs clustering frequency (A, B)        |
| ``fig12_flag``            | Fig. 12(a-d) | FLAG vs fixed NN levels (range & density)    |
| ``fig13_qps``             | Fig. 13(a-c) | update QPS: single server & 5/10-server      |
| ``headline``              | Sec. 1 & 4   | MOIST vs Bx-tree update throughput, shed %   |
| ``ablations``             | —            | Hilbert vs Z-curve, hex vs square bins, FLAG cache, PPP placement |
| ``scaleout``              | extends Fig. 13 | tablet-routed batched update QPS, tablet count and skew vs cluster size |
| ``mixed``                 | Sec. 4.3     | mixed update/query QPS and block-cache hit rate vs query fraction |
| ``recovery``              | —            | crash-recovery time and write amplification vs memtable size |
| ``rebalance``             | —            | master-balanced vs static-affinity clusters under hot-school skew |
"""
