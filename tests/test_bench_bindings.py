"""The benchmark in otterbench/ times and traces otterlink by patching
names where their callers look them up (``runner.solve_nmpc``,
``client.TopicGateway.feed_line``, ...). A rename in the package must
fail here, in the unit suite, not only when the benchmark runs."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from otterlink import client, codec, nmpc
from otterlink.guidance import figure_eight
from otterlink.vessel import VesselParams

BENCH = Path(__file__).resolve().parents[1] / "otterbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return (importlib.import_module("tracer"),
            importlib.import_module("workloads"))


def _check_install(hooks, install, uninstall):
    """Install, check every recorded name is wrapped, uninstall, and
    check every original is back."""
    install()
    try:
        assert hooks
        originals = list(hooks)
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        uninstall()
    assert not hooks
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_tracer_binding_sites_exist(bench):
    tracer_mod, _ = bench
    tracer = tracer_mod.Tracer()
    _check_install(tracer._patched, tracer.install, tracer.uninstall)


def test_tracer_spans_reach_the_gateway(bench):
    tracer_mod, _ = bench
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        line = codec.encode_sentence(
            codec.PosReport(0.0, 45.0, -76.0, 0.0, 1.0, 90.0))
        client.TopicGateway().feed_line(line, 0.0)
    finally:
        tracer.uninstall()
    assert tracer.span_count("codec.encode") == 1
    assert tracer.span_count("client.feed_line") == 1
    assert tracer.span_count("codec.decode") == 1


def test_tracer_counts_the_nmpc_references(bench):
    # the tracer unpacks (cost, gradient) and reads the cost as a float
    tracer_mod, _ = bench
    tracer = tracer_mod.Tracer()
    config = nmpc.NmpcConfig()
    args = (np.zeros(6), np.full((config.steps_N, 2), 0.3), figure_eight(20.0),
            config, VesselParams(), (0.0, 0.0))
    tracer.install()
    try:
        nmpc.cost_gradient(*args)
        nmpc.cost_of_inputs(*args)
    finally:
        tracer.uninstall()
    assert tracer.counts["nmpc.gradient_evals"] == 1
    assert tracer.counts["nmpc.cost_evals"] == 1


def test_timers_binding_sites_exist(bench):
    _, workloads = bench
    timers = workloads.Timers(False)
    _check_install(timers._saved, lambda: timers.install(embedded=True),
                   timers.uninstall)
