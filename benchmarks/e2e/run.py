#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see README.md beside this file).

Run from anywhere; the program measured is the ``src/repro`` of the
checkout this file sits in.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            f"benchmarks/e2e: no program to measure ({SRC}/repro is missing)\n"
        )
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    from e2ebench.cli import main

    sys.exit(main())
