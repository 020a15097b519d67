"""What a fresh interpreter loads: ``import tscomplex`` loads no submodule,
a command loads only the modules it runs, and none loads ``click``.  Each
check runs in a child interpreter and asserts which modules are in
``sys.modules``; none times anything."""

import os
import subprocess
import sys
from pathlib import Path

import tscomplex

SUBMODULES = ("cohen_macaulay", "complexes", "covers", "graphs", "homology", "tsc")


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this tscomplex; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(tscomplex.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> set[str]:
    """The ``tscomplex`` modules loaded once ``code`` has run."""
    out = run_fresh(code + "\nimport sys\n"
                    "print(*sorted(m for m in sys.modules if m.startswith('tscomplex')))")
    return set(out.splitlines()[-1].split())


def test_bare_import_loads_no_submodule():
    assert loaded_after("import tscomplex") == {"tscomplex"}


def test_names_and_submodules_resolve_after_a_bare_import():
    run_fresh(
        "import sys, tscomplex\n"
        "assert tscomplex.covers is sys.modules['tscomplex.covers']\n"
        "names = {}\n"
        "exec('from tscomplex import *', names)\n"
        "for name in tscomplex.__all__:\n"
        "    module = sys.modules['tscomplex.' + tscomplex._MODULE_OF[name]]\n"
        "    assert names[name] is getattr(module, name), name\n"
        f"assert set(tscomplex.__all__) | set({SUBMODULES!r}) <= set(dir(tscomplex))\n"
        "assert not hasattr(tscomplex, 'no_such_name')\n"
    )


def run_command(*args: str) -> str:
    """Code that runs ``tscomplex *args`` in this process to its ``SystemExit``."""
    return ("from tscomplex import cli\n"
            "try:\n"
            f"    cli.main({list(args)!r})\n"
            "except SystemExit:\n"
            "    pass\n")


def test_gen_loads_no_homology_cm_or_covers():
    loaded = loaded_after(run_command("gen", "c42"))
    assert loaded == {"tscomplex", "tscomplex.cli", "tscomplex.complexes", "tscomplex.graphs"}


COMMANDS = [
    ["gen", "c42"],
    ["tsc", "GRAPH"],
    ["fvector", "c42-fixture"],
    ["homology", "c42-fixture"],
    ["check", "cm", "c42-fixture"],
    ["covers", "c42-fixture"],
    ["decompose", "c42-fixture"],
    ["verify-friendship", "--n-max", "1"],
    ["homology", "c42-fixture", "--field", "gf:4"],  # refused: 4 is not prime
]


def test_no_command_loads_click(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text('{"edges": [[1, 2]], "m": 2}')
    code = "".join(run_command(*[str(graph) if a == "GRAPH" else a for a in args])
                   for args in COMMANDS)
    assert run_fresh(code + "import sys\nprint('click' in sys.modules)").endswith("False\n")


IMPORT_ALL = "".join(f"import tscomplex.{m}\n" for m in SUBMODULES + ("cli",))


def test_no_module_imports_dataclasses():
    assert run_fresh(IMPORT_ALL + "import sys\nprint('dataclasses' in sys.modules)") == "False\n"


def test_no_module_imports_fractions():
    # rank over Q imports it on the first pivot other than +-1
    assert run_fresh(IMPORT_ALL + "import sys\nprint('fractions' in sys.modules)") == "False\n"
