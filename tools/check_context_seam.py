#!/usr/bin/env python
"""Lint gate: the ExecutionContext seam must not regress.

The PR-4 deprecation shims (machine-first signatures, ``backend=``
keyword threading, nested pair accessors, ``from_pair_lists``) were
deleted after their one-release grace period; this gate keeps them
deleted.  It scans ``src/repro/{core,lang,apps}`` and fails when:

* ``backend=`` keyword threading reappears anywhere outside the one
  module that resolves backends (``core/context.py``) — f-string debug
  reprs (``backend={...}``) are tolerated;
* the removed nested pair accessors (``send_pairs`` / ``recv_pairs`` /
  ``place_pairs``) or nested constructors (``from_pair_lists``) are
  mentioned anywhere — they no longer exist, so any occurrence is a
  resurrection;
* the deleted shim machinery (``_UNSET`` sentinel, ``_warn_legacy``)
  reappears anywhere;
* a per-primitive backend method (``gather``, ``scatter``,
  ``scatter_append``, ``scatter_append_multi``, ``remap_array``) is
  called on a backend anywhere outside the serial reference module:
  every collective reaches a backend through ``run_fused``, and only
  ``SerialBackend.run_fused`` dispatches to its own per-pair oracle.

Run from the repository root (CI lint job)::

    python tools/check_context_seam.py

Exit status 0 = clean, 1 = violations (printed one per line).
``tests/test_context.py`` runs the same scan, so a violation also fails
tier-1.
"""

from __future__ import annotations

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: directory trees the seam covers
SCAN_DIRS = ("src/repro/core", "src/repro/lang", "src/repro/apps")

#: the one module allowed to spell ``backend=`` (defaults are resolved
#: there and nowhere else)
BACKEND_SHIM_MODULES = frozenset({"src/repro/core/context.py"})

_BACKEND_KWARG = re.compile(r"backend=(?!\{)")
#: fully banned — these names were deleted in PR 5 and must stay deleted
_RESURRECTED = re.compile(
    r"\b(?:send_pairs|recv_pairs|place_pairs|from_pair_lists"
    r"|_warn_legacy|_UNSET)\b"
)

#: the one module whose backend may call its own per-pair primitives
SERIAL_MODULE = "src/repro/core/backends/serial.py"
_PRIMITIVES = r"\.(?:gather|scatter|scatter_append|scatter_append_multi|remap_array)\("
#: a primitive called on a backend: ``ctx.backend.gather(``,
#: ``get_backend("serial").scatter(``, ``_serial().remap_array(``
_BACKEND_PRIMITIVE = re.compile(
    r"(?:\w*backend\w*(?:\([^()]*\))?|\b_serial\(\))" + _PRIMITIVES,
    re.IGNORECASE,
)
#: inside the backend package ``self`` is a backend too
_SELF_PRIMITIVE = re.compile(r"\bself" + _PRIMITIVES)


def scan(root: str = REPO_ROOT) -> list[str]:
    problems: list[str] = []
    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        for dirpath, _dirnames, filenames in os.walk(base):
            for fname in sorted(filenames):
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8") as fh:
                    for lineno, line in enumerate(fh, 1):
                        if (rel not in BACKEND_SHIM_MODULES
                                and _BACKEND_KWARG.search(line)):
                            problems.append(
                                f"{rel}:{lineno}: backend= kwarg threading "
                                f"outside the context module: "
                                f"{line.strip()}"
                            )
                        if _RESURRECTED.search(line):
                            problems.append(
                                f"{rel}:{lineno}: resurrected deprecated "
                                f"surface (deleted in PR 5): {line.strip()}"
                            )
                        if rel != SERIAL_MODULE and (
                                _BACKEND_PRIMITIVE.search(line)
                                or (rel.startswith("src/repro/core/backends/")
                                    and _SELF_PRIMITIVE.search(line))):
                            problems.append(
                                f"{rel}:{lineno}: per-primitive backend "
                                f"dispatch outside the serial oracle (call "
                                f"run_fused): {line.strip()}"
                            )
    return problems


def main() -> int:
    problems = scan()
    if problems:
        print("ExecutionContext seam violations:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"context seam clean across {', '.join(SCAN_DIRS)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
