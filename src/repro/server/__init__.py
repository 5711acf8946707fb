"""Front-end servers, multi-server clusters, the tablet master and load
testing.

The paper's Figures 13(a)-(c) measure update QPS for one, five and ten MOIST
front-end servers sharing a single BigTable.  The model here mirrors that
deployment: every server forwards its requests to the shared
:class:`~repro.bigtable.emulator.BigtableEmulator`, accumulates the simulated
service time of the requests it handled (per-request server overhead plus the
storage time, inflated by a shared-store contention factor that grows mildly
with the number of servers), and the cluster's throughput over an interval is
the requests completed divided by the busiest server's simulated time.

The cluster also carries a control plane: a
:class:`~repro.server.master.TabletMaster` that watches per-tablet load,
migrates hot tablets between front-ends, replicates read-hot tablets for
query fan-out and fails crashed servers over — with a deterministic
:class:`~repro.server.loadtest.FaultPlan` injector driving crashes through
the load tests.

The deployment also scales *out*: a
:class:`~repro.server.scaleout.ScaleOutCluster` scatter-gathers the same
request paths over a shared-nothing federation of shard groups — each a
complete stack built from a :class:`~repro.server.worker.ShardRecipe`,
in-process or in forked workers behind the :mod:`repro.server.rpc`
framing — with worker-count-invariant, bit-identical results.
"""
