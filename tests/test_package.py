"""The package surface: public names resolve on first use, and each
subcommand loads only the layers it runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circhad
from circhad import blockform, matchchase, searcher, seqcore

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = (seqcore, blockform, matchchase, searcher)
BLOCKS = "++,+-,--,+-,--,+-"

# modules no invocation may load: with inspect, dataclasses costs several
# milliseconds of start-up
SLOW_IMPORTS = ("dataclasses", "inspect")
# the names in sys.modules that are circhad modules or SLOW_IMPORTS
LOADED = f"sorted(m for m in sys.modules if m.startswith('circhad') or m in {SLOW_IMPORTS})"

# prints the exit code of cli.main(argv), then every module of LOADED
CLI_PROBE = (
    "import contextlib, io, sys\n"
    "from circhad import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    f"print(code, *{LOADED})\n"
)


def _probe(code: str, *argv: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


# argv, exit code, the layers beside cli that it loads
LOAD_MAP = [
    (["verify", "--", "-+++"], 0, {"seqcore"}),
    (["paf", "--lag", "1", "--", "-+++"], 0, {"seqcore"}),
    (["decompose", "--", "-+++"], 0, {"seqcore", "blockform"}),
    (["eqn1", BLOCKS], 1, {"seqcore", "blockform"}),
    (["match", BLOCKS], 1, {"seqcore", "blockform", "matchchase"}),
    (["chase", "--matchings", "{book}", "--start", "0,2", "--", BLOCKS], 0,
     {"seqcore", "blockform", "matchchase"}),
    (["counterexample"], 0, {"seqcore", "blockform", "matchchase"}),
    (["search", "--order", "16"], 0, {"seqcore", "searcher"}),
]


@pytest.mark.parametrize("argv, code, layers", LOAD_MAP, ids=[a[0] for a, _, _ in LOAD_MAP])
def test_subcommand_loads_only_its_layers(tmp_path, argv, code, layers):
    book = tmp_path / "book.txt"
    book.write_text("u=2: (0,2)~(2,4)\nu=4: (0,4)~(4,2)\n")
    exit_code, *loaded = _probe(CLI_PROBE, *(a.format(book=book) for a in argv))
    assert int(exit_code) == code
    assert set(loaded) == {"circhad", "circhad.cli"} | {f"circhad.{x}" for x in layers}


def test_import_loads_no_layer():
    loaded = _probe(f"import sys, circhad\nprint(*{LOADED})\n")
    assert loaded == ["circhad"]


def test_public_names_are_the_layers_public_names():
    prunes = ["ALL_PRUNES", "PRUNE_PREFIX_PAF", "PRUNE_ROW_SUM"]
    assert circhad.__all__ == prunes + [n for names in circhad._NAMES.values() for n in names]
    assert len(circhad.__all__) == len(set(circhad.__all__))
    layers = {layer.__name__.removeprefix("circhad."): layer for layer in LAYERS}
    assert circhad._NAMES.keys() == layers.keys()
    for name, layer in layers.items():
        assert layer.__all__ == list(circhad._NAMES[name])


@pytest.mark.parametrize("name", circhad.__all__)
def test_public_name_resolves_to_its_definition(name):
    namespace: dict = {}
    exec(f"from circhad import {name}", namespace)
    value = namespace[name]
    holders = [layer for layer in LAYERS if name in vars(layer)]
    assert holders
    assert all(vars(layer)[name] is value for layer in holders)
    assert getattr(circhad, name) is value
    assert name in dir(circhad)


def _package_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "circhad" and not node.level
        for alias in node.names
    ]


SCRIPTS = sorted([*ROOT.glob("benchmarks/*.py"), *ROOT.glob("demos/*.py")])


@pytest.mark.parametrize("path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS])
def test_scripts_import_only_public_names(path):
    # read, not run: every name a benchmark or demo takes from circhad
    # must still be a public name of the package
    for name in _package_imports(path):
        assert name in circhad.__all__, f"{path.name} imports {name}"
        assert hasattr(circhad, name), f"{path.name} imports {name}"


@pytest.mark.parametrize("module", [circhad, searcher], ids=["circhad", "searcher"])
def test_unknown_attribute_is_named(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec(f"from {module.__name__} import no_such_name", {})


def _layer_imports(source: str) -> list[str]:
    """The layer modules that import statements anywhere in source, a module
    of the circhad package, name: at module level or inside a function."""
    layers = {f"circhad.{name}" for name in circhad._NAMES}
    named = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "circhad" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            named += [module, *(f"{module}.{alias.name}" for alias in node.names)]
    return sorted({m for m in named for layer in layers if m == layer or m.startswith(layer + ".")})


@pytest.mark.parametrize(
    "source",
    [
        "from .seqcore import paf",
        "from . import blockform",
        "def f():\n    from . import matchchase, searcher",
        "import circhad.searcher",
        "from circhad import seqcore",
        "from circhad.blockform import recompose as r",
    ],
)
def test_layer_import_forms_are_seen(source):
    assert _layer_imports(source)


def test_cli_reads_layers_only_through_the_package():
    # a layer imported by cli.py itself would be a second lazy-loading path
    # beside the package's __getattr__, and LOAD_MAP cannot see one that is
    # local to a function whose subcommand loads that layer anyway
    source = (SRC / "circhad" / "cli.py").read_text(encoding="utf-8")
    assert _layer_imports(source) == []
    assert "TYPE_CHECKING" not in source
