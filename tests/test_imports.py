"""The import graph: `import forestlie` and `forestlie.cli` load no kernel
module, a command loads only the modules it runs, and every public name of
the package still resolves to the object in its home module.  Each test runs
in a fresh interpreter, since this one has imported every module already."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).parent.parent / "src"
KERNELS = ["dyck", "compositions", "partitions", "forests", "polynomial", "operators", "checks"]
HEAVY = ["concurrent.futures", "multiprocessing", "dataclasses"]
REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def fresh(*argv: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with these arguments; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))}
    env.pop("FORESTLIE_JOBS", None)
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def modules_after(code: str) -> set[str]:
    """The modules loaded once code has run; its own stdout goes to /dev/null."""
    quiet = "import contextlib, os\nwith open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
    body = "".join(f"    {line}\n" for line in code.splitlines())
    return set(json.loads(fresh("-c", quiet + body + REPORT).stdout))


def test_import_loads_no_kernel():
    loaded = modules_after("import forestlie, forestlie.cli")
    assert {"forestlie", "forestlie.cli"} <= loaded
    assert not loaded & {f"forestlie.{name}" for name in KERNELS}
    assert not loaded & set(HEAVY)


def test_coeff_loads_only_dyck():
    loaded = modules_after("from forestlie import cli\nassert cli.main(['coeff', '--p', '0,1']) == 0")
    assert {name for name in KERNELS if f"forestlie.{name}" in loaded} == {"dyck"}


@pytest.mark.parametrize("argv", [["dyck", "--k", "2"], ["clambda", "--lambda", "1,2"],
                                  ["pullback", "--k", "3"], ["sigma", "--k", "2", "--check"],
                                  ["lie", "--k", "2", "--check"], ["estimate", "--k", "1", "--h", "1"]],
                         ids=" ".join)
def test_commands_load_no_checks_and_no_pool(argv):
    loaded = modules_after(f"from forestlie import cli\nassert cli.main({argv!r}) == 0")
    assert not loaded & {"forestlie.checks", *HEAVY}


def test_public_names_are_their_home_objects():
    code = """
import importlib, json, forestlie
homes = {}
for name in forestlie.__all__:
    obj = getattr(forestlie, name)
    home = importlib.import_module(obj.__module__)
    assert getattr(home, name) is obj, name
    homes[name] = home.__name__
print(json.dumps(homes))
"""
    homes = json.loads(fresh("-c", code).stdout)
    assert len(homes) == 39
    assert homes["Primed"] == homes["ROOT"] == "forestlie.forests"
    assert homes["SelfCheckError"] == "forestlie.errors"
    assert homes["bell"] == homes["SetPartition"] == "forestlie.partitions"


def test_star_import_dir_and_unknown_names():
    code = """
import forestlie
namespace = {}
exec("from forestlie import *", namespace)
assert set(forestlie.__all__) <= namespace.keys(), set(forestlie.__all__) - namespace.keys()
assert set(forestlie.__all__) <= set(dir(forestlie))
assert "__version__" in dir(forestlie)
try:
    forestlie.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("forestlie.no_such_name resolved")
from forestlie import cli  # not a public name: the import falls through to the submodule
assert cli.CHECKS is __import__("forestlie.checks").checks.CHECKS
"""
    fresh("-c", code)


def test_verify_jobs2_in_a_fresh_interpreter():
    # the workers fork after cmd_verify has imported checks
    outs = [fresh("-m", "forestlie.cli", "verify", "--max-k", "3", "--jobs", jobs).stdout
            for jobs in ("1", "2")]
    outs = [re.sub(r"checks in \d+ ms", "checks in 0 ms", out) for out in outs]
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[-1].startswith("pass: ")
