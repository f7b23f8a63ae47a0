"""Set-up probe: a fresh interpreter imports agverify from the checkout, loads
the workload document given on standard input into program objects, and
prints "ready". `run.py` times it from process start to that line.

    python3 perfbench/probe.py WORKLOAD < document

It imports nothing of the benchmark, so the time is the program's own.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")

if __name__ == "__main__":
    sys.path.insert(0, SRC)
    import agverify
    from agverify import docparse

    if not os.path.realpath(agverify.__file__).startswith(os.path.join(SRC, "")):
        print(f"error: imported {agverify.__file__}, not the copy under {SRC}", file=sys.stderr)
        sys.exit(2)
    if sys.argv[1] == "corpus_cli":
        # As the first command of a user: read and parse the bundled corpus.
        files = sorted(agverify.corpus_dir().glob("*.ag"))
        docparse.parse_documents([(str(f), f.read_text()) for f in files])
    else:
        docparse.parse_document(sys.stdin.read(), source="<workload>")
    print("ready", flush=True)
