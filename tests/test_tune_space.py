"""Search-space generation: validity on every modeled system."""

import pytest

from repro.topology import get_system
from repro.tune.space import (PAPER_DEFAULT, chunk_candidates,
                              config_from_dict, config_to_dict,
                              generate_space, hierarchy_candidates,
                              hierarchy_depth)
from repro.xhc import build_hierarchy
from repro.xhc.config import XhcConfig

SYSTEMS = ["epyc-1p", "epyc-2p", "arm-n1"]


@pytest.mark.parametrize("system", SYSTEMS)
def test_hierarchy_candidates_build_on_their_machine(system):
    """Every generated ordering must build a real hierarchy at full and
    partial rank counts — the core validity contract of the space."""
    topo = get_system(system)
    cands = hierarchy_candidates(topo)
    assert "flat" in cands
    assert len(cands) == len(set(cands))
    for hierarchy in cands:
        for nranks in (topo.n_cores, topo.n_cores // 2, 5):
            cfg = XhcConfig(hierarchy=hierarchy)
            cores = list(range(min(nranks, topo.n_cores)))
            hier = build_hierarchy(topo, cores, cfg.tokens(), 0)
            assert hier.n_levels >= 1
            # Every rank appears exactly once per level's membership.
            seen = sorted(m for g in hier.levels[0] for m in g.members)
            assert seen == cores


def test_candidates_respect_topology():
    # arm-n1 has no LLC subdivision -> no "l3" token anywhere.
    arm = hierarchy_candidates(get_system("arm-n1"))
    assert not any("l3" in h for h in arm)
    # epyc-1p is single-socket -> no "socket" token.
    e1 = hierarchy_candidates(get_system("epyc-1p"))
    assert not any("socket" in h for h in e1)
    # epyc-2p has all three levels.
    e2 = hierarchy_candidates(get_system("epyc-2p"))
    assert "l3+numa+socket" in e2


def test_orderings_are_inner_to_outer_only():
    for system in SYSTEMS:
        for h in hierarchy_candidates(get_system(system)):
            tokens = h.split("+")
            order = {"flat": -1, "l3": 0, "numa": 1, "socket": 2}
            assert tokens == sorted(tokens, key=order.__getitem__)


@pytest.mark.parametrize("system", SYSTEMS)
def test_generate_space_valid_configs(system):
    """Every config in the space constructs, includes the paper default
    first, and has chunk tuples matching its hierarchy's depth."""
    topo = get_system(system)
    for size in (1024, 262144):
        space = generate_space(topo, topo.n_cores, "bcast", size)
        assert space[0] == PAPER_DEFAULT
        assert len(space) == len(set(space))
        for cfg in space:
            depth = hierarchy_depth(topo, cfg.hierarchy, topo.n_cores)
            if isinstance(cfg.chunk_size, tuple):
                assert len(cfg.chunk_size) == depth
            # Round-trips through the JSON form unchanged.
            assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_from_dict_defaults_fields_older_tables_lack():
    """A table row written before ``reduce_min``/``cico_ring`` existed
    still loads, with those two at the paper default."""
    row = config_to_dict(XhcConfig(hierarchy="flat", chunk_size=(4096,),
                                   cico_threshold=0))
    del row["reduce_min"], row["cico_ring"]
    cfg = config_from_dict(row)
    assert cfg == XhcConfig(hierarchy="flat", chunk_size=(4096,),
                            cico_threshold=0)
    assert (cfg.reduce_min, cfg.cico_ring) \
        == (PAPER_DEFAULT.reduce_min, PAPER_DEFAULT.cico_ring)


def test_small_vs_large_open_different_dimensions():
    topo = get_system("epyc-2p")
    small = generate_space(topo, topo.n_cores, "bcast", 256)
    large = generate_space(topo, topo.n_cores, "bcast", 1048576)
    # Small messages sweep CICO thresholds and flag layouts...
    assert len({c.cico_threshold for c in small}) > 1
    assert len({c.flag_layout for c in small}) > 1
    # ...but never pipeline chunking (beyond the default).
    assert all(c.chunk_size == PAPER_DEFAULT.chunk_size for c in small)
    # Large messages sweep chunks, not thresholds/layouts.
    assert len({c.chunk_size for c in large}) > 1
    assert all(c.flag_layout == "single" for c in large
               if c != PAPER_DEFAULT)


def test_quick_mode_shrinks_space():
    topo = get_system("epyc-2p")
    full = generate_space(topo, topo.n_cores, "bcast", 1048576)
    quick = generate_space(topo, topo.n_cores, "bcast", 1048576, quick=True)
    assert PAPER_DEFAULT in quick
    assert len(quick) < len(full)


def test_chunk_candidates_collapse_oversized():
    # All grid chunks >= size behave identically (no pipelining): only
    # one oversized representative may appear.
    cands = chunk_candidates(1, 1024)
    assert len([c for c in cands if isinstance(c, int) and c >= 1024]) == 1
    # Non-uniform tuples appear only for multi-level hierarchies.
    assert all(isinstance(c, int) for c in chunk_candidates(1, 1048576))
    deep = chunk_candidates(3, 1048576)
    assert any(isinstance(c, tuple) and len(c) == 3 for c in deep)
