"""The package's import graph: the core modules stay below the layers that
use them, so a map language or a generator never pulls in the swap lab."""

import ast
import subprocess
import sys
from pathlib import Path

import langlab

PACKAGE = Path(langlab.__file__).parent


def package_imports(path):
    """The names a module's source imports from the package: a module's
    short name, or the name taken from ``langlab`` itself."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = (node.module or "").split(".")
            elif (node.module or "").split(".")[0] == "langlab":
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts and parts[0]:
                out.add(parts[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "langlab":
                    out.add(parts[1] if len(parts) > 1 else "langlab")
    return out


GRAPH = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}


def test_the_graph_sees_the_imports_it_checks():
    assert {"grammars", "guards", "words"} <= GRAPH["corpus"]
    assert {"acceptance", "corpus", "swaplab"} <= GRAPH["cli"]


def test_the_base_modules_import_nothing_from_the_package():
    assert GRAPH["words"] == set()
    assert GRAPH["guards"] == set()


def test_no_core_module_imports_upward():
    assert "swaplab" not in GRAPH["corpus"]
    assert "corpus" not in GRAPH["refuter"]
    assert "corpus" not in GRAPH["swaplab"]


def test_importing_the_corpus_leaves_the_swap_lab_unloaded():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import langlab.corpus; "
        "print('langlab.swaplab' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"


def test_importing_the_package_leaves_the_front_end_unloaded():
    # every fresh interpreter pays for what `import langlab` pulls in
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import langlab; "
        "print(sorted({'argparse', 'json', 'langlab.cli'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_a_cli_run_leaves_argparse_and_gettext_unloaded():
    # the front end reads its options off cli.COMMANDS; argparse pulls in gettext
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); from langlab import cli; "
        "code = cli.main(['params', '--m', '1']); "
        "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)), file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert '"command": "params"' in done.stdout
    assert done.stderr.strip() == "0 []"
