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


def private_names(path):
    """The underscore names a module's source takes from other package
    modules: imported by name, or read as an attribute of a package module
    it imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "langlab"):
            out.update(alias.name for alias in node.names if alias.name.startswith("_"))
            if node.level and not node.module:
                modules.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.attr.startswith("_"):
                out.add(f"{node.value.id}.{node.attr}")
    return out


def test_the_graph_sees_the_imports_it_checks():
    assert {"grammars", "guards", "words"} <= GRAPH["corpus"]
    assert {"acceptance", "corpus", "swaplab"} <= GRAPH["cli"]


def test_the_base_modules_import_nothing_from_the_package():
    assert GRAPH["words"] == set()
    assert GRAPH["guards"] == set()


def test_no_module_takes_a_private_name_from_another():
    # each module's private names are its own; a rule another module needs is public
    taken = {path.stem: private_names(path) for path in PACKAGE.glob("*.py")}
    assert {stem: names for stem, names in taken.items() if names} == {}


def test_the_private_name_check_sees_both_spellings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .swaplab import _entry_json, build_slice\nfrom . import corpus\ncorpus._constant\n")
    assert private_names(probe) == {"_entry_json", "corpus._constant"}


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
