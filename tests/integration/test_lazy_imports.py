"""Integration: the package imports what it uses, when it uses it.

``repro`` resolves its public names on first read and
``repro.experiments`` builds ``FIGURES`` on first read, so the CLI and the
experiment scenario helpers load no figure, ablation, robustness or
analysis module and no ``multiprocessing``. Only a fresh interpreter's
``sys.modules`` can show that, so the checks run in a subprocess.
"""

import subprocess
import sys
import textwrap

SCRIPT = textwrap.dedent("""
    import sys

    def lazily_loaded():
        return sorted(
            name for name in sys.modules
            if name.startswith(("repro.experiments.fig", "repro.analysis",
                                "repro.experiments.ablations",
                                "repro.experiments.robustness",
                                "repro.experiments.multiseed",
                                "repro.experiments.runner"))
            or name == "multiprocessing")

    import repro.cli
    assert lazily_loaded() == [], lazily_loaded()
    import repro.experiments.common
    assert lazily_loaded() == [], lazily_loaded()

    import repro
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    assert set(repro.__all__) <= set(dir(repro))
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    from repro import FatTreeTopology
    from repro.network.topology.fattree import FatTreeTopology as home
    assert FatTreeTopology is home
    try:
        repro.NoSuchName
    except AttributeError:
        pass
    else:
        raise AssertionError("unknown names must raise AttributeError")

    from repro.experiments import FIGURES
    assert len(FIGURES) == 21, sorted(FIGURES)
    assert list(FIGURES)[:9] == [f"fig{i}" for i in range(1, 10)]
    from repro.experiments import fig6
    assert FIGURES["fig6"] is fig6.run
    assert all(callable(run) for run in FIGURES.values())
    print("ok")
""")


def test_cli_and_scenarios_load_no_figure_module():
    result = subprocess.run([sys.executable, "-c", SCRIPT],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.rstrip().endswith("ok")
