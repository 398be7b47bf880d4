"""Compare the report digests of two or more sets of benchmark runs.

Usage::

    python3 perfbench/digests.py SET_A/ SET_B/      # directories or files

Every argument is a results file written by ``run.py`` or a directory of
them.  Ops are grouped by their argv across all files, by the rule a run
applies to its own passes; an argv whose reports (timing fields removed)
have more than one digest is printed, and the exit status is then 1.
"""

import glob
import json
import os
import sys

import run


def main(argv):
    if not argv:
        print(__doc__)
        return 2
    files = []
    for path in argv:
        files += sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    passes = []
    for path in files:
        with open(path) as fh:
            passes += json.load(fh)["passes"]
    differ = sorted(set(run.consistency_errors(passes)))
    for line in differ:
        print(line)
    print("%d results files, %d passes, %d commands with differing digests"
          % (len(files), len(passes), len(differ)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
