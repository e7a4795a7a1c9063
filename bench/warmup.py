"""Set-up probe, run as a fresh process: import hermsynth, run one
synthesize call on a saved matrix, then print the monotonic clock.

Usage: python3 bench/warmup.py <src dir> <matrix .npy>
"""

import sys
import time


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import numpy as np
    from hermsynth import synthesize

    synthesize(np.load(sys.argv[2]))
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main()
