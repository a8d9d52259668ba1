#!/usr/bin/env python3
"""Run a fixed matrix of ``rootseq`` CLI invocations in-process and hash what
they print.

The matrix is every README example with its json/latex/dot variants, plus
``word class``/``word heap``, ``pair dist``, ``arq diff``, the ``verify``
sweeps, ``pair socle|gdist|simple|minimal`` on a sequence of three roots
of D4 and of E6, which take the paths for sequences that are not pairs,
``pair len`` on the E7 reference pair, ``pair radius`` on two words of
no AR quiver: a word of A2 shorter than w0, whose class holds [1,2] and no
pair of its weight (exit 2), and a word of w0 in A5 adapted to no
orientation, and ``denom verify`` on every E6 orientation (exit 0) and on
the E7 reference orientation (exit 1: six entries lie above the reading).  Prints one line: the number of invocations and a sha256 over
each invocation's arguments, stdout and exit code.  Two versions of the CLI that
print the same line behave the same on the matrix.  Run with
``PYTHONPATH=src``.
"""

import contextlib
import hashlib
import io
import sys

from rootseq.cli import main as cli_main

D4 = ["--quiver", "D4:3>2,2>1,2>4"]
E6 = ["--type", "E6", "--orient", "1>2,2>3,3>4,4>5,6>3"]
A3_W0 = ["--type", "A3", "--word", "1 2 1 3 2 1"]
E7 = ["--type", "E7", "--orient", "1>3,3>4,4>5,5>6,6>7,2>4"]
A5_NON_ADAPTED = ["--type", "A5", "--word", "1 2 3 5 4 3 1 2 3 5 4 3 1 2 3"]


def _formats(argv, formats=("text", "json")):
    return [argv + ["--format", f] for f in formats]


MATRIX = [
    *_formats(["word", "roots", "--type", "A5",
               "--word", "1 3 2 1 4 3 2 1 5 4 3 2 1 5 4"]),
    *_formats(["word", "quiver", *A3_W0]),
    *_formats(["word", "class", *A3_W0]),
    *_formats(["word", "heap", *A3_W0]),
    *_formats(["arq", "show", *D4], ("text", "json", "dot", "latex")),
    ["arq", "diff", "--fixture", "e6"],
    ["arq", "diff", "--fixture", "e7"],
    ["arq", "diff", "--fixture", "e8"],
    ["arq", "diff", "--fixture", "e6", "--format", "json"],
    *_formats(["pair", "socle", *D4, "--pair", "{2|-4},{1|2}"]),
    *_formats(["pair", "gdist", *E6, "--pair", "111001,123212"]),
    *_formats(["pair", "radius", *D4, "--gamma", "{1|2}"]),
    *_formats(["pair", "dist", *D4, "--pair", "{2|-4},{1|2}"]),
    *_formats(["pair", "len", *E7, "--pair", "1111100,0112221"]),
    ["pair", "radius", "--type", "A2", "--word", "1 2", "--gamma", "[1,2]"],
    *_formats(["pair", "radius", *A5_NON_ADAPTED, "--gamma", "[1,5]"]),
    *(argv
      for action in ("socle", "gdist", "simple", "minimal")
      for system, seq in ((D4, "{1|-4},{2|3},{2|-3}"), (E6, "111001,011100,001110"))
      for argv in _formats(["pair", action, *system, "--pair", seq])),
    *_formats(["order", *D4, "--seq-a", "{1|-4},{2|3},{2|-3}",
               "--seq-b", "{2|-4},{1|2}"]),
    *_formats(["denom", "poly", "--quiver", "A3:1>2,2>3", "--k", "1", "--l", "2"],
              ("text", "json", "latex")),
    *_formats(["denom", "table", "--type", "E6", "--all-orientations"],
              ("text", "json", "latex")),
    *_formats(["denom", "verify", "--type", "D5", "--all-orientations",
               "--check-all"]),
    *_formats(["denom", "verify", "--type", "E6", "--all-orientations"]),
    ["denom", "verify", *E7],
    *_formats(["verify", "fixtures"]),
    *_formats(["verify", "rds-mul", "--type", "D4", "--all-orientations"]),
    ["verify", "dist-bound", "--type", "A4"],
    ["verify", "dist-bound", "--type", "D4"],
]


def main():
    digest = hashlib.sha256()
    for argv in MATRIX:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        digest.update(f"{argv}\n{out.getvalue()}\nexit {code}\n".encode())
    print(f"invocations {len(MATRIX)}  sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
