"""Fixtures shared by the calibration, command-line and acceptance tests."""

import dataclasses

import pytest

import subsetgibbs.calibrate as calibrate


@pytest.fixture
def scripted_timings(monkeypatch):
    """Make every chain that ``run_sweep`` runs report scripted durations.

    ``scripted_timings(wall, cpu=None)`` maps each grid point n to the wall
    (and CPU) seconds its chain reports; CPU seconds not scripted read 0.
    The chain itself runs unchanged and its output gets the scripted
    durations, and pool workers see the patch when they are forked.
    """
    real_run_chain = calibrate.run_chain

    def install(wall, cpu=None):
        def timed(data, config, n, **kwargs):
            out = real_run_chain(data, config, n, **kwargs)
            return dataclasses.replace(out, elapsed_wall_seconds=wall[n],
                                       elapsed_cpu_seconds=cpu[n] if cpu else 0.0)

        monkeypatch.setattr(calibrate, "run_chain", timed)

    return install
