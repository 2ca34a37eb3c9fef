"""swipesim benchmark: workloads, measured stages, tracing and checks."""
