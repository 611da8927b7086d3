"""Benchmark harness for genrabi.

The harness treats ``src/genrabi`` as a black box: it generates seeded
inputs, calls the package's public entry points (or spawns the CLI), checks
every output against analytic laws computed here, and, in traced runs,
records spans around wrappers it installs over the package's public names.
Only the standard library and numpy are used.
"""

# At most one worker thread: set in the benchmark process before numpy loads
# and in every child it starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
