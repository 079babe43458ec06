"""The layer map covers the whole ``repro`` package, once.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import cProfile
import fnmatch
import pstats

import pytest

from perfbench import layers


def test_every_module_maps_to_exactly_one_layer():
    modules = layers.repro_modules()
    assert "repro.sim.engine" in modules
    bad = {
        module: layers.layers_matching(module)
        for module in modules
        if len(layers.layers_matching(module)) != 1
    }
    assert not bad, f"modules mapping to no layer or to several: {bad}"


def test_every_layer_glob_names_a_module():
    modules = layers.repro_modules()
    stale = [
        glob
        for globs in layers.LAYERS.values()
        for glob in globs
        if not any(fnmatch.fnmatchcase(module, glob) for module in modules)
    ]
    assert not stale, f"layer globs matching no module: {stale}"


def test_code_outside_repro_is_other():
    assert layers.layer_of(pytest.__file__) == layers.OTHER
    assert layers.layer_of("~") == layers.OTHER
    assert layers.layer_of(layers.__file__) == layers.OTHER


def test_self_seconds_close_to_the_profile_total():
    from repro.sim import Engine, Topology, ops

    engine = Engine(Topology(sockets=2, cores_per_socket=2), seed=1)
    word = engine.cell(0)

    def worker(task):
        for _ in range(200):
            yield ops.FetchAdd(word, 1)

    for cpu in range(4):
        engine.spawn(worker, cpu=cpu)
    profile = cProfile.Profile()
    profile.runcall(engine.run)
    stats = pstats.Stats(profile).stats
    selfs = layers.self_seconds(stats)
    assert sum(selfs.values()) == pytest.approx(
        sum(row[2] for row in stats.values())
    )
    assert selfs["sim.engine"] > 0 and selfs["sim.cache"] > 0
    calls = layers.entry_point_stats(stats)
    assert set(calls) == set(layers.ENTRY_POINTS)
