import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from replicas import build_erciyes_replica, build_umafall_replica
import wristfall
from wristfall.core import Label, SignalWindow, Source, TrialRecording
from wristfall.datasets import IngestReport, ingest, load_manifest
from wristfall.synthetic import synthesize


def make_recording(
    t,
    acc,
    gyr=None,
    rate=25.0,
    label=Label.ADL,
    trial_id="trial",
    subject="S01",
    code="TEST",
):
    t = np.asarray(t, dtype=float)
    acc = np.asarray(acc, dtype=float).reshape(-1, 3)
    gyr = np.zeros_like(acc) if gyr is None else np.asarray(gyr, dtype=float).reshape(-1, 3)
    return TrialRecording(
        trial_id=trial_id,
        subject_id=subject,
        activity_code=code,
        label=label,
        sample_rate_hz=rate,
        t=t,
        acc=acc,
        gyr=gyr,
        source=Source.SYNTHETIC,
    )


def make_window(acc, gyr=None, rate=25.0, label=Label.ADL, ref="trial"):
    acc = np.asarray(acc, dtype=float).reshape(-1, 3)
    gyr = np.zeros_like(acc) if gyr is None else np.asarray(gyr, dtype=float).reshape(-1, 3)
    n = acc.shape[0]
    t = np.arange(n) / rate
    return SignalWindow(
        recording_ref=ref,
        subject_id="S01",
        label=label,
        sample_rate_hz=rate,
        window_index=0,
        start_t=0.0,
        end_t=float(t[-1]),
        t=t,
        acc=acc,
        gyr=gyr,
    )


@pytest.fixture(scope="session")
def synth_trials():
    return synthesize(seed=2024, n_subjects=6, trials_per_subject=20)


def cpu_seconds() -> float:
    """User and system CPU seconds of this process and of its reaped children (the forked file workers)."""
    usages = (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    return sum(u.ru_utime + u.ru_stime for u in usages)


def fresh_python(code: str, *args: str, **kwargs) -> subprocess.CompletedProcess:
    """`python -c code *args` in a new interpreter that imports this wristfall, its stdout and stderr captured as
    bytes; `kwargs` go to `subprocess.run`."""
    src = str(Path(wristfall.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, timeout=120, **kwargs)


class Ingested(NamedTuple):
    trials: list
    report: IngestReport
    wall_s: float
    cpu_s: float


def _load_corpus(env_var, builder, tmp_path_factory, name) -> Ingested:
    """The corpus of the manifest `env_var` names, or else of the replica `builder` writes, ingested and timed."""
    override = os.environ.get(env_var)
    if override:
        manifest = load_manifest(override)
    else:
        manifest = load_manifest(builder(tmp_path_factory.mktemp(name)))
    t0, cpu0 = time.perf_counter(), cpu_seconds()
    trials, report = ingest(manifest)
    return Ingested(trials, report, time.perf_counter() - t0, cpu_seconds() - cpu0)


@pytest.fixture(scope="session")
def erciyes(tmp_path_factory):
    return _load_corpus("WRISTFALL_ERCIYES_MANIFEST", build_erciyes_replica, tmp_path_factory, "erciyes")


@pytest.fixture(scope="session")
def umafall(tmp_path_factory):
    return _load_corpus("WRISTFALL_UMAFALL_MANIFEST", build_umafall_replica, tmp_path_factory, "umafall")
