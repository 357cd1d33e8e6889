"""What ``import autrealize.cli`` loads.

Each ``autrealize realize`` or ``validate`` call is its own process, so
every module the CLI imports is paid for on every call.  The package
records its audit trail on a contextvar and its results in plain
classes, so it needs neither ``logging`` nor ``dataclasses`` (which
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``).  A future
``-v`` must import ``logging`` inside its own branch, not at start-up.
The two subcommands are read by the CLI's own small parser, for
``argparse`` and the ``gettext`` it imports cost about a quarter of the
cold import.  Every rational is an element of the degree-1 field
``exact.QQ``, so neither the import nor a ``realize`` or ``validate``
loads ``fractions``, or the ``decimal`` and ``numbers`` modules it
imports, which cost about a third of the cold import.  The package
imports nothing outside the standard library.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Standard modules the CLI must not load at start-up.
UNWANTED = (
    "logging",
    "dataclasses",
    "inspect",
    "typing",
    "argparse",
    "gettext",
    "fractions",
    "decimal",
    "numbers",
)

#: Rational arithmetic the commands must not load at run time either.
RATIONALS = ("fractions", "decimal", "numbers")

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


def test_commands_load_no_rational_module(tmp_path):
    # a realize and a shallow validate of its certificate in one process:
    # the modules stay out, not only out of the import
    cert = str(tmp_path / "s3.json")
    realize = ["realize", "--named", "S3", "--count", "1", "--out", cert]
    run = (
        "import sys; from autrealize.cli import main; "
        f"codes = main({realize!r}), main({['validate', cert]!r}); "
        f"print(*codes, *[m for m in {RATIONALS!r} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", run],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines()[-1] == "0 0"


def test_cli_import_loads_every_package_module():
    # tracing from outside the package rebinds functions in every loaded
    # autrealize module, so importing the CLI must load all of them
    package = {"autrealize"} | {
        f"autrealize.{path.stem}"
        for path in (SRC / "autrealize").glob("*.py")
        if path.stem != "__init__"
    }
    assert package <= loaded_by_cli_import()


def test_package_imports_only_the_standard_library():
    foreign = []
    for path in sorted((SRC / "autrealize").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []
