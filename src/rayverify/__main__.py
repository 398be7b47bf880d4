"""Entry point of ``python -m rayverify`` and the ``rayverify`` console script.

Both run `rayverify.cli` as a program, not as an imported module, so that
``--version`` and ``cache`` load no engine layer and every other command
loads only the layers it calls into.  The program's ``__main__`` block
also ends the process: a finished command runs the `atexit` handlers,
flushes and leaves by `os._exit`, so `main` here does not return (see the
`rayverify.cli` docstring for when it leaves by `sys.exit` instead).
"""

import runpy


def main():
    runpy.run_module("rayverify.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
