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
fails or refutes a claim, 2 on usage or computational errors.  A flag is
``--flag value`` or ``--flag=value``, before or after the target, and
spelled out in full; the last of a repeated flag wins.  The parser reads
its grammar from two tables: `harness.COMMANDS` lists the verbs, the
targets and the engine flags each command reads, and `_FLAGS` the type of
each flag's value.  A flag that the command does not read is a usage
error, as is a ``--report`` into a missing directory or naming a
directory, and ``--help`` prints the commands from the same tables.

Run as a program (``python -m rayverify``, the ``rayverify`` script or
``python -m rayverify.cli``), a command loads only the modules it calls
into: ``--version`` loads no module of the package besides its
``__init__`` and this one; ``--help`` loads `harness`, which holds
`COMMANDS`; ``cache`` adds the certificate cache (`cache`, with `json`);
and each ``verify`` or ``explore`` command imports `harness`, `checks`,
`nt` and the module of its check family (with its runner), and

* ``rays`` (`checks_rays`): `quadratic`, `gmodules`, `intmat`, `residues`;
* ``gras``, ``conjecture`` (`checks_gras`): those, `rayclass`,
  `classgroup`, `units` and `circular`;
* ``sinnott`` (`checks_sinnott`): `quadratic`, `units` and `circular`;
* ``h90`` (`checks_special`): `quadratic`, `special` and `circular`;
* ``annihilator`` (`checks_annihilators`): ``--mode special`` `cache`,
  and `quadratic`, `special` and `circular` unless the cache serves it;
  ``--mode solomon`` the modules of ``gras``, and ``thaine`` and
  ``both`` `special` as well.

Only a ray class group builds a class group, which reads h off u_D in
`units`.  No command loads `fractions`, and `json` is imported only to
write a report or to read or write the cache.  No command loads `cyclo`,
as each check builds the Galois group {1, sigma} in `quadratic` and a
field named by ``--field`` is read with `nt` alone.  No command loads
`padics` or `grouprings`: sinnott and solomon decide their claims in
integers.  Those three layers serve the tests and the acceptance gates.

Run as a program, a command that returns from `main` ends without the
interpreter's teardown, which would clear every module and collect
garbage after the verdict is printed: it runs the `atexit` handlers,
flushes stdout and stderr, and leaves by `os._exit` with main's status.
It leaves by `sys.exit` as usual when a trace or profile function is set
(cProfile, ``trace``, pdb, coverage), under ``python -i``, or when a flush
raises; an exception from `main`, such as the `SystemExit` of a usage
error, propagates as it always did.

Imported as a module, this file exits nothing and loads every module of
the package at once, so that a program which imports it and then
instruments the layers (as ``perfbench/tracer.py`` does) finds every
module in place.
"""

import os
import sys

from . import __version__

if __name__ != "__main__":
    # every layer, for programs that instrument them; see the docstring
    from . import (  # noqa: F401
        cache,
        checks,
        checks_annihilators,
        checks_gras,
        checks_rays,
        checks_sinnott,
        checks_special,
        circular,
        classgroup,
        cyclo,
        gmodules,
        grouprings,
        harness,
        intmat,
        nt,
        padics,
        quadratic,
        rayclass,
        residues,
        special,
        units,
    )

#: flag -> (type of its value, metavar, help).  A verify or explore command
#: reads `_COMMON` and the engine flags `COMMANDS` lists for it; a cache
#: command reads only --cache.
_FLAGS = {
    "quad": (int, "N", "radicand or discriminant of a real quadratic field"),
    "field": (str, "M:A1,A2,...", "fixed field of <a_i> in (Z/m)^*; not with --quad"),
    "p": (int, "N", "verification prime"),
    "d": (int, "N", "twist / ray modulus / scan bound"),
    "ell": (int, "N", "auxiliary prime"),
    "prec": (int, "N", "p-adic digits to compare"),
    "modulus": (int, "N", "ray modulus"),
    "mode": (str, "MODE", "sub-mode of the command"),
    "report": (str, "PATH", "write the JSON report here"),
    "cache": (str, "DIR", "cache directory override"),
    "seed": (int, "N", "recorded in the report"),
}
_COMMON = ("quad", "field", "report", "seed")
_CACHE_OPS = ("clear", "stats")

_USAGE = "usage: rayverify [-h] [--version] VERB TARGET [--FLAG VALUE ...]"


def _help():
    """The --help text, generated from `COMMANDS` and `_FLAGS`."""
    from .harness import COMMANDS

    lines = [
        _USAGE,
        "",
        "numerical verification of cyclotomic-unit and ray-class-group",
        "identities over real quadratic fields",
        "",
        "commands, with the flags each reads besides %s:"
        % ", ".join("--" + f for f in _COMMON),
    ]
    for (verb, target), (quad, flags) in COMMANDS.items():
        reads = " ".join("--" + f for f in flags)
        lines.append("  %-22s %-30s (default --quad %d)" % (verb + " " + target, reads, quad))
    for op in _CACHE_OPS:
        lines.append("  %-22s --cache only" % ("cache " + op))
    lines += ["", "flags, as --FLAG VALUE or --FLAG=VALUE (the last one wins):"]
    for flag, (_, metavar, about) in _FLAGS.items():
        lines.append("  %-22s %s" % ("--%s %s" % (flag, metavar), about))
    lines.append("  %-22s %s" % ("-h, --help", "show this help and exit"))
    lines.append("  %-22s %s" % ("--version", "show the version and exit"))
    return "\n".join(lines)


def _fail(message):
    """Exit 2 on a usage error, with argparse's wording."""
    from .harness import EXIT_ERROR

    print("%s\nrayverify: error: %s" % (_USAGE, message), file=sys.stderr)
    raise SystemExit(EXIT_ERROR)


def _is_option(word):
    return word.startswith("-") and not word[1:].isdigit()


def _parse(argv):
    """(verb, target, {flag: value}) from argv, or None once the help or the
    version is printed.  Exits 2 on a usage error."""
    words, values = [], {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg in ("-h", "--help"):
            print(_help())
            return None
        if arg == "--version":
            print("rayverify " + __version__)
            return None
        if not _is_option(arg):
            words.append(arg)
            continue
        option, eq, value = arg.partition("=")
        flag = option[2:] if option.startswith("--") else None
        if flag not in _FLAGS:
            _fail("unrecognized arguments: %s" % arg)
        if not eq:
            if i == len(argv) or _is_option(argv[i]):
                _fail("argument %s: expected one argument" % option)
            value = argv[i]
            i += 1
        kind = _FLAGS[flag][0]
        try:
            values[flag] = kind(value)
        except ValueError:
            _fail("argument %s: invalid %s value: %r" % (option, kind.__name__, value))

    from .harness import COMMANDS

    verbs = {}
    for verb, target in COMMANDS:
        verbs.setdefault(verb, []).append(target)
    verbs["cache"] = list(_CACHE_OPS)
    for position, name in enumerate(("verb", "target")):
        if len(words) == position:
            _fail("the following arguments are required: %s" % name)
        choices = verbs if position == 0 else verbs[words[0]]
        if words[position] not in choices:
            _fail(
                "argument %s: invalid choice: %r (choose from %s)"
                % (name, words[position], ", ".join(map(repr, choices)))
            )
    if len(words) > 2:
        _fail("unrecognized arguments: %s" % " ".join(words[2:]))
    verb, target = words

    reads = ("cache",) if verb == "cache" else _COMMON + COMMANDS[(verb, target)][1]
    for flag in values:
        if flag not in reads:
            _fail("--%s: %s %s does not read it" % (flag, verb, target))
    named = [flag for flag in values if flag in ("quad", "field")]
    if len(named) == 2:
        _fail("argument --%s: not allowed with argument --%s" % (named[1], named[0]))
    report = values.get("report", "")
    folder = os.path.dirname(report)
    if folder and not os.path.isdir(folder):
        _fail("argument --report: no directory %r to write the report in" % folder)
    if os.path.isdir(report):
        _fail("argument --report: %r is a directory, not a file" % report)
    return verb, target, values


def main(argv=None):
    parsed = _parse(sys.argv[1:] if argv is None else argv)
    if parsed is None:
        return 0
    verb, target, values = parsed
    from . import harness

    try:
        if verb == "cache":
            from .cache import Cache

            store = Cache(values.get("cache"))
            if target == "clear":
                print("removed %d entries from %s" % (store.clear(), store.root))
            else:
                import json

                print(json.dumps(store.stats(), indent=2, sort_keys=True))
            return 0
        quad, flags = harness.COMMANDS[(verb, target)]
        opts = {flag: values[flag] for flag in flags if flag in values}
        field = values.get("field")
        quad = values.get("quad", quad if field is None else None)
        D = harness.resolve_discriminant(quad, field)
        # looked up at call time, so that instrumented runners are the ones run
        report = getattr(harness, "run_" + target)(D, **opts)
        report["seed"] = values.get("seed")
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
        path = values.get("report")
        if path:
            import json

            with open(path, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
            print("report written to %s" % path)
        return report["exit_status"]
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return harness.EXIT_ERROR


if __name__ == "__main__":
    status = main()
    # skip the teardown, unless a tracer, a profiler or -i still needs the
    # interpreter, or a flush fails (see the docstring)
    if sys.gettrace() is None and sys.getprofile() is None and not sys.flags.inspect:
        import atexit

        atexit._run_exitfuncs()  # runs each handler once and unregisters it
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None when its descriptor was closed
                    stream.flush()
        except (OSError, ValueError):
            pass  # the interpreter's own flush reports it
        else:
            os._exit(status)
    sys.exit(status)
