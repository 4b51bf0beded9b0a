"""Command-line entry points: qraise, qdrop, qinfo."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import EmulatorError
from .orchestrator import qdrop, qinfo, qraise


def qraise_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qraise", description="Raise a family of vQPU processes.")
    parser.add_argument("-n", type=int, required=True, dest="n",
                        help="number of vQPUs to launch")
    parser.add_argument("-t", required=True, dest="ttl", metavar="HH:MM:SS",
                        help="maximum time the vQPUs stay available")
    parser.add_argument("--backend", default=None,
                        help="path to a backend JSON description")
    parser.add_argument("--sim", default="statevector",
                        help="simulator engine identifier")
    parser.add_argument("--classical_comm", action="store_true",
                        help="enable classical communications for the family")
    parser.add_argument("--quantum_comm", action="store_true",
                        help="enable quantum communications (spawns an executor)")
    parser.add_argument("--co-located", action="store_true", dest="co_located",
                        help="make the family reachable from any node")
    parser.add_argument("--name", default=None, help="family name")
    parser.add_argument("-c", type=int, default=None, dest="cores",
                        help="cores per vQPU (accepted for CUNQA compatibility, ignored)")
    parser.add_argument("--mem-per-qpu", default=None, dest="mem_per_qpu",
                        help="memory per vQPU (accepted for CUNQA compatibility, ignored)")
    parser.add_argument("--n_nodes", type=int, default=None, dest="n_nodes",
                        help="simulated node count (advisory)")
    parser.add_argument("--noise-prop", default=None, dest="noise_prop",
                        help="noise properties JSON (unsupported in this build)")
    args = parser.parse_args(argv)
    try:
        qraise(n=args.n, ttl=args.ttl, backend=args.backend, sim=args.sim,
               classical_comm=args.classical_comm,
               quantum_comm=args.quantum_comm, co_located=args.co_located,
               name=args.name, cores=args.cores, mem_per_qpu=args.mem_per_qpu,
               n_nodes=args.n_nodes, noise_prop=args.noise_prop)
    except (EmulatorError, ValueError) as exc:
        print(f"qraise: {exc}", file=sys.stderr)
        return 1
    return 0


def qdrop_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qdrop", description="Terminate vQPU families and free resources.")
    parser.add_argument("family", nargs="?", default=None,
                        help="family name to drop")
    parser.add_argument("--all", action="store_true", dest="drop_all",
                        help="drop every live family")
    args = parser.parse_args(argv)
    if args.drop_all == (args.family is not None):
        parser.error("give exactly one of <family> or --all")
    try:
        qdrop("all" if args.drop_all else args.family)
    except EmulatorError as exc:
        print(f"qdrop: {exc}", file=sys.stderr)
        return 1
    return 0


def qinfo_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qinfo", description="Show the vQPUs currently active.")
    parser.add_argument("--family", default=None, help="filter by family name")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
    args = parser.parse_args(argv)
    rows = qinfo(family=args.family)
    if args.as_json:
        print(json.dumps(rows, indent=1))
        return 0
    if not rows:
        print("no vQPUs active")
        return 0
    cols = ["family", "vqpu_id", "kind", "endpoint", "comm_mode", "node",
            "pid", "ttl", "state"]
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    return 0
