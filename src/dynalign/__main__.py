import os
import sys

# OpenBLAS starts no worker pool: the commands' training, DDIM and SVM GEMMs
# run pinned to one thread (numcore.one_blas_thread), training and DDIM use
# the other CPUs through lanes of their own, and a pool's idle worker spins
# after every unpinned call. Set before numpy loads, and here rather than in
# the package, so that importing dynalign leaves the environment alone.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .harness import main  # noqa: E402

sys.exit(main())
