"""Command-line entry point: ``python -m repro.analysis lint [paths...]``.

Runs the repo-specific AST lint (REP001-REP012) over the given
files/directories (default: the installed ``repro`` package).  Exit code
1 if any issue is found.  ``--json`` / ``--sarif`` switch the report
format for CI tooling; ``--list-rules`` prints the rule catalogue.

The pre-run model checker and race detector live behind
``python -m repro verify`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from .lint import main as lint_main


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    cmd, rest = argv[0], argv[1:]
    if cmd == "lint":
        return lint_main(rest)
    print(f"unknown subcommand {cmd!r}; expected 'lint'", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
