import os
import sys
from pathlib import Path

# The suite's bounds were measured with one BLAS/OpenMP thread, and some
# results depend on the thread count.  The variables act only when they
# are set before numpy is first imported.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could "
                       "pin one BLAS thread; a warning filter in "
                       "pyproject.toml that names a numpy or scipy class "
                       "imports it")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).parent))


def pytest_configure(config):
    # SuperLU's warning of an exactly singular matrix fails a test.  It is
    # added here rather than in pyproject.toml, where pytest would import
    # scipy, and numpy with it, before this file could pin the threads.
    config.addinivalue_line("filterwarnings",
                            "error::scipy.sparse.linalg.MatrixRankWarning")
