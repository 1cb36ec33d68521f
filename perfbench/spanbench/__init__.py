"""The spanfeat benchmark: workloads, reference computations and tracing."""

WORKLOADS = ("tagger-train", "classifier-train", "predict")

# Thread-count variables of the BLAS and OpenMP runtimes numpy may load; the
# benchmark sets each to 1 before numpy is imported.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
