import os
import sys
from pathlib import Path

# One BLAS thread: on the fit's small matrices more threads cost more than
# they save. OpenBLAS reads these variables when numpy loads, so numpy must
# not be loaded yet; a caller's own setting wins.
assert "numpy" not in sys.modules, "numpy was imported before the BLAS thread count was set"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))
