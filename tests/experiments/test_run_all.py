"""Smoke test for the run-everything driver."""

import os

import pytest

from repro.cli import main
from repro.experiments.common import Scale
from repro.experiments.run_all import FIGURES, run_all


class TestRunAll:
    def test_smoke_scale_writes_all_tables(self, tmp_path):
        outdir = str(tmp_path / "out")
        smoke = Scale.smoke()
        # Restrict to the two fastest figures for the smoke test; the
        # full list is exercised figure-by-figure in the benchmarks.
        import repro.experiments.run_all as run_all_module

        original = run_all_module.FIGURES
        run_all_module.FIGURES = [f for f in original if f[0] in ("fig41",)]
        try:
            run_all(smoke, outdir)
        finally:
            run_all_module.FIGURES = original
        assert os.path.exists(os.path.join(outdir, "table41.txt"))
        assert os.path.exists(os.path.join(outdir, "fig41.txt"))
        with open(os.path.join(outdir, "fig41.txt")) as fh:
            assert "Fig 4.1" in fh.read()

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "all", "--scale", "bogus"])
        assert excinfo.value.code == 2

    def test_figures_registry_complete(self):
        names = [name for name, _module in FIGURES]
        assert names == (
            [f"fig4{i}" for i in range(1, 8)]
            + ["fig_failover", "fig_regimes"]
        )
