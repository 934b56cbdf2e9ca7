"""Fixtures shared by the calibration, command-line and acceptance tests."""

import pytest

import subsetgibbs.calibrate as calibrate
from subsetgibbs import Clock


@pytest.fixture
def scripted_timings(monkeypatch):
    """Make every chain that ``run_sweep`` runs report scripted durations.

    ``scripted_timings(wall, cpu=None)`` maps each grid point n to the wall
    (and CPU) seconds its chain reports; CPU seconds not scripted read 0.
    The chain itself runs unchanged, timed by a fake ``gibbs.Clock``, and
    pool workers see the patch when they are forked.
    """
    real_run_chain = calibrate.run_chain

    def install(wall, cpu=None):
        def timed(data, config, n, **kwargs):
            walls = iter([0.0, wall[n]])
            cpus = iter([0.0, cpu[n] if cpu else 0.0])
            clock = Clock(wall=lambda: next(walls), cpu=lambda: next(cpus))
            return real_run_chain(data, config, n, clock=clock, **kwargs)

        monkeypatch.setattr(calibrate, "run_chain", timed)

    return install
