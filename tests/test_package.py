"""The package surface: public names resolve on first use, and each
subcommand loads only the layers it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import circhad
from circhad import blockform, matchchase, searcher, seqcore

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = (seqcore, blockform, matchchase, searcher)
BLOCKS = "++,+-,--,+-,--,+-"

# prints the exit code of cli.main(argv), then every circhad module loaded
CLI_PROBE = (
    "import contextlib, io, sys\n"
    "from circhad import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(code, *sorted(m for m in sys.modules if m.startswith('circhad')))\n"
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
    loaded = _probe(
        "import sys, circhad\n"
        "print(*sorted(m for m in sys.modules if m.startswith('circhad')))\n"
    )
    assert loaded == ["circhad"]


def test_public_names_are_the_layers_public_names():
    assert sorted(circhad.__all__) == sorted({n for layer in LAYERS for n in layer.__all__})
    assert len(circhad.__all__) == len(set(circhad.__all__))


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


def test_searcher_reexports_the_block_row_enumerators():
    for name in ("all_block_sequences", "enumerate_block_sequences"):
        assert getattr(searcher, name) is getattr(blockform, name)


@pytest.mark.parametrize("module", [circhad, searcher], ids=["circhad", "searcher"])
def test_unknown_attribute_is_named(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec(f"from {module.__name__} import no_such_name", {})
