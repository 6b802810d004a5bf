"""The package namespace, one list of public names, and its import footprint."""
import subprocess
import sys

import numpy as np

import mrkit
from mrkit import (
    data,
    estimators,
    orientation,
    regression,
    simulation,
    write_dataset,
)

from conftest import make_dataset, subprocess_env

MODULES = (data, estimators, orientation, regression, simulation)


def test_all_is_the_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert mrkit.__all__ == names + ["__version__"]
    assert "DEFAULT_REPLICATES" in mrkit.__all__


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mrkit, name) is getattr(module, name), name


# Importing mrkit loads numpy and no scipy module: scipy.special comes with
# the first t inference, scipy.linalg with the first correlation matrix. Each
# check runs in a fresh process, where no test module has imported scipy.
_SCIPY_LOADED = ("sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.'))")


def _run(script: str) -> list[str]:
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=subprocess_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def _main_script(*argvs) -> str:
    """A script printing main's exit status per argv, then the scipy modules."""
    return (
        "import contextlib, io, sys\n"
        "from mrkit.cli import main\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            status = main(argv)\n"
        "        except SystemExit as exit_info:\n"
        "            status = exit_info.code\n"
        "    print(status)\n"
        "print(%s)\n" % (list(argvs), _SCIPY_LOADED))


def test_import_loads_no_scipy():
    assert _run("import sys, mrkit, mrkit.cli\n"
                f"print({_SCIPY_LOADED})\n") == ["[]"]


def test_help_and_data_fault_load_no_scipy(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("variant_id,effect_allele,other_allele,beta_x1,se_x1,"
                    "beta_y,se_y\n"
                    "rs1,A,G,0.1,0.01,0.05,0.02\n"
                    "rs2,A,G,abc,0.01,0.05,0.02\n")
    assert _run(_main_script(["--help"],
                             ["analyze", "--data", str(path), "--k", "1"])
                ) == ["0", "2", "[]"]


def test_fit_loads_scipy_special_not_stats(tmp_path):
    i = np.arange(1, 9)
    path = tmp_path / "summary.csv"
    write_dataset(make_dataset(0.1 + 0.01 * i, 0.05 + 0.003 * i ** 2,
                               np.full(8, 0.02)), path)
    status, loaded = _run(_main_script(
        ["analyze", "--data", str(path), "--k", "1", "--methods", "UI"]))
    assert status == "0"
    assert "'scipy.special'" in loaded
    assert "'scipy.stats'" not in loaded


def test_simulate_and_grid_load_no_scipy(tmp_path):
    # The Monte Carlo engine decides each t test by its critical value alone,
    # also a ratio at that value or within 1e-12 of it, so no scipy module
    # loads in _t_rejects, run_scenario, simulate or grid.
    script = ("import sys\n"
              "import numpy as np\n"
              "from mrkit import run_scenario, scenario_config\n"
              "from mrkit.estimators import _t_critical, _t_rejects\n"
              "for df in (1, 2, 8, 183, 10**6):\n"
              "    t = _t_critical(df, 0.05) * np.array(\n"
              "        [1.0, 1.0 - 1e-12, 1.0 + 1e-12])\n"
              "    _t_rejects(t, np.ones(3), df, 0.05)\n"
              f"print({_SCIPY_LOADED})\n"
              "run_scenario(scenario_config(2, replicates=256, seed=5))\n"
              f"print({_SCIPY_LOADED})\n")
    script += _main_script(
        ["simulate", "--scenario", "2", "--reps", "300",
         "--out", str(tmp_path / "sim")],
        ["grid", "--mediation", "--reps", "8",
         "--out", str(tmp_path / "grid")])
    assert _run(script) == ["[]", "[]", "0", "0", "[]"]
