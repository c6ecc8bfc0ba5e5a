"""The `dynalign` command: `python -m dynalign` and the installed script
both run `main`."""
import os
import sys


def main(argv=None):
    # OpenBLAS starts no worker pool: the commands' training, DDIM and SVM
    # GEMMs run pinned to one thread (numcore.one_blas_thread), training,
    # DDIM and pipeline's worker use the other CPUs in lanes or a process of
    # their own, and a pool's idle worker spins after every unpinned call.
    # Set before numpy loads, and here rather than in the package, so that
    # importing dynalign leaves the environment alone.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .harness import main as run

    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
