"""Set-up cost of a workload, without running any check.

    python3 perfbench/probe.py INVOCATIONS.json

Imports ``envshift.cli`` in a fresh interpreter and parses the arguments and
the algebra, shift and chain inputs of every invocation listed in
INVOCATIONS.json (a JSON list of CLI argument lists), then exits.
"""

import json
import sys

from envshift.algebra import parse_algebra
from envshift.chains import load_chain_file
from envshift.cli import build_parser
from envshift.shifts import shift_from_designator


def parse_inputs(argv):
    args = build_parser().parse_args(argv)
    if args.command == "chain":
        load_chain_file(args.file)
        return
    spec = parse_algebra(args.algebra)
    shift = getattr(args, "A", None)
    if shift and shift != "symbolic":
        shift_from_designator(spec, shift)


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        for argv in json.load(fh):
            parse_inputs(argv)
