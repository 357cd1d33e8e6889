"""What ``import autrealize.cli`` loads.

Each ``autrealize realize`` or ``validate`` call is its own process, so
every module the CLI imports is paid for on every call.  The package
records its audit trail on a contextvar and its results in plain
classes, so it needs neither ``logging`` nor ``dataclasses`` (which
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``).  A future
``-v`` must import ``logging`` inside its own branch, not at start-up.
The two subcommands are read by the CLI's own small parser, for
``argparse`` and the ``gettext`` it imports cost about a quarter of the
cold import.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Standard modules the CLI must not load at start-up.
UNWANTED = ("logging", "dataclasses", "inspect", "typing", "argparse", "gettext")

PROBE = (
    "import sys; before = set(sys.modules); import autrealize.cli; "
    "print(*sorted(set(sys.modules) - before), sep='\\n')"
)


def loaded_by_cli_import():
    """Modules that ``import autrealize.cli`` adds to a fresh interpreter
    started without ``site`` (so no ``.pth`` file adds its own)."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_unwanted_module():
    loaded = loaded_by_cli_import()
    assert [m for m in UNWANTED if m in loaded] == []


def test_cli_import_loads_every_package_module():
    # tracing from outside the package rebinds functions in every loaded
    # autrealize module, so importing the CLI must load all of them
    package = {"autrealize"} | {
        f"autrealize.{path.stem}"
        for path in (SRC / "autrealize").glob("*.py")
        if path.stem != "__init__"
    }
    assert package <= loaded_by_cli_import()
