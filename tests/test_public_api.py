"""Every public function and class of the package's modules is used by the
package or its benchmark: one that only tests call is API to delete, not to
keep, and the package itself holds nothing but its modules.  Every
subcommand is a job of the benchmark's readme-cli workload, whose job list
is the README's CLI block, and every option but a listed few is set by
some benchmark job.  And one module, serialize, owns the JSON layout, one,
_lapack, owns the lookup of scipy's compiled routines, and one, spectral,
owns the normal float range of a moment sequence."""

import argparse
import ast
import sys
import types
from pathlib import Path

import momentspectra
from helpers import readme_commands
from momentspectra import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "momentspectra"

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def _public_definitions() -> list[str]:
    """The public module-level functions and classes of the package's
    modules, as module.name; an empty list would let the check over it pass
    with nothing checked."""
    names = [f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.parse(path.read_text()).body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("_")]
    assert names
    return names


def _code_references() -> set[str]:
    """Names, attributes and imported names in the code of src/ and
    perfbench/.  Strings, comments and the def or class statement of a name
    do not count."""
    names = set()
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_every_public_definition_is_referenced_outside_tests():
    references = _code_references()
    assert [name for name in _public_definitions()
            if name.partition(".")[2] not in references] == []


def test_the_package_namespace_holds_only_its_modules():
    # each name is imported from its module, `from momentspectra.measures import moments`
    others = [name for name, value in vars(momentspectra).items()
              if not (name.startswith("__") and name.endswith("__"))
              and not (isinstance(value, types.ModuleType)
                       and value.__name__ == f"momentspectra.{name}")]
    assert others == []


def test_every_subcommand_is_a_readme_cli_job():
    # the benchmark times each subcommand at its README arguments
    assert {job["argv"][0] for job in workloads.readme_jobs()} == set(cli._COMMANDS)


def test_readme_cli_block_is_the_readme_cli_job_list():
    # the readme-cli workload times the README's commands, less each --out
    # DIR; its pseudo grid is --res 16 --dim 64, the README's --res 64 --dim 256
    smaller = {("--res", "64"): "16", ("--dim", "256"): "64"}
    commands = []
    for argv in readme_commands():
        at = argv.index("--out")
        argv = argv[:at] + argv[at + 2:]
        if argv[0] == "pseudo":
            argv = [smaller.get(pair, pair[1]) for pair in zip([""] + argv, argv)]
        commands.append(argv)
    assert commands == [job["argv"] for job in workloads.readme_jobs()]


#: the options that no benchmark job sets, each with the reason it stays
UNSET_OPTIONS = {
    ("region", "--measure"): "the moment weights of a measure, which ROADMAP item 11 gives "
                             "traffic when region writes both discs of --measure",
}


def _parser_options() -> set[tuple[str | None, str]]:
    """Every option of the built parser as (subcommand, flag), with None as
    the subcommand of a parser-level option; argparse's own -h/--help aside."""
    options = set()

    def collect(command, parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    collect(name, sub)
            elif not isinstance(action, argparse._HelpAction):
                options.update((command, flag) for flag in action.option_strings)

    collect(None, cli.build_parser())
    return options


def test_every_option_is_set_by_a_benchmark_job():
    # an option that no job sets is configuration that nothing runs; the
    # worker appends --out to every job's argv
    jobs = [job for make in workloads.WORKLOADS.values() for job in make()] + workloads.probe()
    set_by_jobs = {(job["argv"][0], arg.partition("=")[0])
                   for job in jobs if "argv" in job
                   for arg in job["argv"][1:] + ["--out"] if arg.startswith("--")}
    assert _parser_options() - set_by_jobs == set(UNSET_OPTIONS)
    # contraction and fov build their operators from --measure: no other source comes back
    assert {("contraction", "--weights"), ("contraction", "--kind"),
            ("fov", "--weights")}.isdisjoint(_parser_options())


def _json_writers(path: Path) -> list[str]:
    """Each json.dump, json.dumps or JSONEncoder the code of `path` reaches,
    as an attribute of json or a name imported from it."""
    writers = ("dump", "dumps", "JSONEncoder")
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "json" and node.attr in writers):
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [alias.name for alias in node.names if alias.name in writers]
    return found


def test_only_serialize_lays_out_json():
    # one owner of the JSON layout: every artifact and manifest goes through write_json
    package = ROOT / "src" / "momentspectra"
    writers = {path.name: _json_writers(path) for path in sorted(package.rglob("*.py"))
               if path.name != "serialize.py"}
    assert {name: found for name, found in writers.items() if found} == {}


def _finfo_tiny_reads(path: Path) -> int:
    """How many times the code of `path` reads the `tiny` of a finfo call."""
    return sum(1 for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "tiny"
               and isinstance(node.value, ast.Call)
               and ast.unparse(node.value.func).split(".")[-1] == "finfo")


def test_only_spectral_reads_the_normal_range():
    # one owner of the normal-range decision: spectral.normal_length, which
    # region and the moment checks share
    package = ROOT / "src" / "momentspectra"
    reads = {path.name: _finfo_tiny_reads(path) for path in sorted(package.rglob("*.py"))
             if path.name != "spectral.py"}
    assert {name: count for name, count in reads.items() if count} == {}
    assert _finfo_tiny_reads(package / "spectral.py") > 0


def _scipy_imports(path: Path) -> list[str]:
    """Each module of the scipy package that the code of `path` imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return [name for name in found if name.split(".")[0] == "scipy"]


def test_only_lapack_imports_scipy():
    # one owner of the compiled-routine lookup: the package never imports the
    # scipy.linalg package, whose import costs more than most commands
    package = ROOT / "src" / "momentspectra"
    imports = {path.name: _scipy_imports(path) for path in sorted(package.rglob("*.py"))
               if path.name != "_lapack.py"}
    assert {name: found for name, found in imports.items() if found} == {}


def test_no_module_imports_names_from_lapack():
    # the package takes each routine as an attribute, `_lapack.dstebz`, which
    # loads scipy's modules at its first use; `from ._lapack import dstebz`
    # would load them wherever the import statement runs
    package = ROOT / "src" / "momentspectra"
    found = [path.name for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and (node.level, node.module) in ((1, "_lapack"), (0, "momentspectra._lapack"))]
    assert found == []
