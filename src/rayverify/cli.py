"""Command-line interface for the verification engine.

Usage examples::

    rayverify verify sinnott --quad 5 --p 7 --prec 12
    rayverify verify rays --quad 5 --ell 11 --p 5
    rayverify verify gras --quad 5 --mode scan --d 50
    rayverify verify h90 --quad 13 --ell 53
    rayverify verify annihilator --quad 79 --mode both --p 3
    rayverify explore conjecture --quad 5 --p 3 --d 18
    rayverify cache stats

Exit status: 0 when every check passes or is inconclusive, 1 when any check
fails or refutes a claim, 2 on usage or computational errors.  An engine
flag that the command does not read is a usage error: `harness.COMMANDS`
lists the flags of each command.

Run as a program (``python -m rayverify``, the ``rayverify`` script or
``python -m rayverify.cli``), a command loads only the modules it calls
into: ``--version`` and ``cache`` load no engine layer, and each ``verify``
or ``explore`` command imports `checks` with `nt` and `quadratic`, plus
the module of its check family and

* ``rays`` (`checks_rays`): `gmodules`, `intmat` and `residues`;
* ``gras`` and ``conjecture`` (`checks_gras`): `classgroup`, `gmodules`,
  `intmat`, `residues` and `units`;
* ``sinnott`` (`checks_sinnott`): `units` only;
* ``h90`` and ``annihilator --mode special`` (`checks_special`): `units`
  and `special` only;
* ``annihilator --mode thaine`` (`checks_annihilators`): `classgroup`,
  `gmodules`, `intmat`, `residues`, `units` and `special`;
* ``annihilator --mode solomon`` (`checks_annihilators`): `classgroup`,
  `grouprings`, `gmodules`, `intmat`, `padics`, `residues` and `units`,
  and ``--mode both`` `special` as well.

A class group loads `classgroup` and `units`, as it reads h off u_D;
``rays`` builds none.  ``rays``, ``sinnott`` and ``h90`` load no
`fractions` either.  No command loads `cyclo`, as each check builds the
Galois group {1, sigma} in `quadratic`; only a field named by ``--field``
loads it.

Imported as a module, this file loads every module of the package at
once, so that a program which imports it and then instruments the layers
(as ``perfbench/tracer.py`` does) finds every module in place.
"""

import argparse
import json
import sys

from . import __version__, harness
from .harness import COMMANDS, Cache, EXIT_ERROR, resolve_discriminant

if __name__ != "__main__":
    # every layer, for programs that instrument them; see the docstring
    from . import (  # noqa: F401
        checks,
        checks_annihilators,
        checks_gras,
        checks_rays,
        checks_sinnott,
        checks_special,
        classgroup,
        cyclo,
        gmodules,
        grouprings,
        intmat,
        nt,
        padics,
        quadratic,
        residues,
        special,
        units,
    )

#: every flag that some runner reads
_ENGINE_FLAGS = {flag for _, flags in COMMANDS.values() for flag in flags}


def _add_common(sp):
    # one field per command: argparse rejects --quad together with --field
    named = sp.add_mutually_exclusive_group()
    named.add_argument(
        "--quad",
        type=int,
        help="radicand or fundamental discriminant of a real quadratic field",
    )
    named.add_argument(
        "--field",
        help="abelian field as m:a1,a2,... (fixed field of the subgroup "
        "generated by the a_i in (Z/m)^*); must be real quadratic",
    )
    sp.add_argument("--p", type=int, help="verification prime")
    sp.add_argument("--d", type=int, help="twist / ray modulus / scan bound")
    sp.add_argument("--ell", type=int, help="auxiliary prime")
    sp.add_argument("--prec", type=int, help="p-adic digits to compare")
    sp.add_argument("--modulus", type=int, help="ray modulus")
    sp.add_argument("--mode", help="sub-mode of the command")
    sp.add_argument("--report", metavar="PATH", help="write the JSON report here")
    sp.add_argument("--cache", metavar="DIR", help="cache directory override")
    sp.add_argument("--seed", type=int, help="recorded in the report")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rayverify",
        description="numerical verification of cyclotomic-unit and "
        "ray-class-group identities over real quadratic fields",
    )
    ap.add_argument(
        "--version", action="version", version="rayverify " + __version__
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb, about in (
        ("verify", "run a verification command"),
        ("explore", "run an exploratory comparison"),
    ):
        sp = sub.add_parser(verb, help=about)
        sp.add_argument("target", choices=[t for v, t in COMMANDS if v == verb])
        _add_common(sp)
    c = sub.add_parser("cache", help="manage the certificate cache")
    c.add_argument("op", choices=["clear", "stats"])
    c.add_argument("--cache", metavar="DIR", help="cache directory override")
    return ap


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "cache":
            cache = Cache(args.cache)
            if args.op == "clear":
                print("removed %d entries from %s" % (cache.clear(), cache.root))
            else:
                print(json.dumps(cache.stats(), indent=2, sort_keys=True))
            return 0
        quad, flags = COMMANDS[(args.verb, args.target)]
        opts = {k: v for k, v in vars(args).items() if k in _ENGINE_FLAGS and v is not None}
        for flag in opts:
            if flag not in flags:
                parser.error(
                    "--%s: %s %s does not read it" % (flag, args.verb, args.target)
                )
        if args.quad is None and args.field is None:
            args.quad = quad
        D = resolve_discriminant(args.quad, args.field)
        # looked up at call time, so that instrumented runners are the ones run
        report = getattr(harness, "run_" + args.target)(D, **opts)
        report["seed"] = args.seed
        for check in report["checks"]:
            print("[%s] %s (%.2fs)" % (check["status"], check["name"], check["elapsed"]))
        s = report["summary"]
        print(
            "%s on discriminant %d: %d pass, %d fail, %d inconclusive, "
            "%d falsifies-paper"
            % (
                report["command"],
                D,
                s["pass"],
                s["fail"],
                s["inconclusive"],
                s["falsifies-paper"],
            )
        )
        if args.report:
            with open(args.report, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
            print("report written to %s" % args.report)
        return report["exit_status"]
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
