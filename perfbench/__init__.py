"""fvi-bench benchmark: seeded workloads, oracle checks and span tracing."""
