"""Child process for ``setup_s``: time a cold import of harmcode plus the
construction of every parameter set one workload uses.

    python3 setup_probe.py <workload> <src-dir>

Prints the elapsed seconds. Interpreter start-up is not included; input
generation is not part of set-up.
"""

import os
import sys
import time


def main(argv):
    workload, src = argv
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import specs

    t0 = time.perf_counter()
    import harmcode  # noqa: F401

    if workload == "file-pipeline":
        import harmcode.cli  # noqa: F401
        import harmcode.fileio  # noqa: F401
    specs.build_params(workload)
    elapsed = time.perf_counter() - t0
    if "harmcode" not in sys.modules or not sys.modules["harmcode"].__file__.startswith(src):
        raise SystemExit(f"imported harmcode from outside {src}")
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1:])
