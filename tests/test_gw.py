import math

import numpy as np
import pytest

from gw_files import dump_embedding, dump_graph
from ptffool import gw, spaces
from ptffool.errors import ConfigurationError, ContractViolationError


def test_single_edge_antipodal_cut_is_one():
    g = gw.single_edge()
    emb = gw.generate_test_embedding(g, "antipodal")
    assert gw.expected_cut_exact(g, emb) == 1.0


def test_perpendicular_edge_cut_is_half():
    g = gw.single_edge()
    emb = gw.Embedding(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert gw.expected_cut_exact(g, emb) == pytest.approx(0.5, abs=1e-15)


def test_pentagon_optimal_embedding():
    g = gw.cycle_graph(5)
    emb = gw.generate_test_embedding(g, "cycle_optimal")
    # vertices at angles 4 pi j / 5: every edge subtends cos = cos(4 pi/5)
    got = gw.expected_cut_exact(g, emb)
    assert abs(got - 4.0) <= 1e-9


def test_expected_cut_rotation_invariant():
    rng = np.random.default_rng(1)
    g = gw.cycle_graph(6)
    emb = gw.generate_test_embedding(g, "random_unit", dim=3, seed=2)
    theta = 0.7
    R = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                  [math.sin(theta), math.cos(theta), 0.0],
                  [0.0, 0.0, 1.0]])
    rotated = gw.Embedding(emb.vectors @ R.T)
    a = gw.expected_cut_exact(g, emb)
    b = gw.expected_cut_exact(g, rotated)
    assert abs(a - b) <= 1e-12


def test_embedding_requires_unit_rows():
    with pytest.raises(ConfigurationError, match="vertex 2"):
        gw.Embedding(np.array([[1.0, 0.0], [0.5, 0.0]]))


def test_graph_validation():
    with pytest.raises(ConfigurationError):
        gw.Graph(2, ((0, 0, 1.0),))   # self-loop
    with pytest.raises(ConfigurationError):
        gw.Graph(2, ((0, 3, 1.0),))   # vertex out of range
    with pytest.raises(ConfigurationError):
        gw.Graph(2, ((0, 1, -1.0),))  # negative weight


def test_k_for_eps_matches_rule():
    assert gw.k_for_eps(0.05) == math.ceil(4.0 / 0.05 ** 2)
    assert gw.k_for_eps(0.1) == 400


def test_exact_seed_sweep_antipodal():
    """Full seed enumeration of a 2-wise Gaussian space on the
    antipodal edge: the marginals are never exactly zero, so every seed
    separates the endpoints."""
    g = gw.single_edge()
    emb = gw.generate_test_embedding(g, "antipodal")
    gs = spaces.build_kwise_gaussian(2, 2, resolution=256)
    rep = gw.round_with_space(g, emb, gs)
    assert rep.mode == "exact_seed_sweep"
    assert rep.mean_cut == 1.0
    assert rep.min_cut == 1.0 and rep.max_cut == 1.0


def test_exact_seed_sweep_perpendicular():
    # sign symmetry of the seed space forces exactly half the seeds to cut
    g = gw.single_edge()
    emb = gw.Embedding(np.array([[1.0, 0.0], [0.0, 1.0]]))
    gs = spaces.build_kwise_gaussian(2, 2, resolution=256)
    rep = gw.round_with_space(g, emb, gs)
    assert rep.mean_cut == 0.5


def test_mc_agrees_with_exact_cut():
    g = gw.cycle_graph(5)
    emb = gw.generate_test_embedding(g, "random_unit", dim=3, seed=7)
    exact = gw.expected_cut_exact(g, emb)
    gs = spaces.build_kwise_gaussian(3, 4, resolution=1024)
    rep = gw.round_with_space(g, emb, gs, trials=40_000, seed=11)
    assert abs(rep.mean_cut - exact) <= max(rep.ci, 3e-2)


def test_mc_is_reproducible():
    g = gw.cycle_graph(4)
    emb = gw.generate_test_embedding(g, "random_unit", dim=2, seed=3)
    gs = spaces.build_kwise_gaussian(2, 2, resolution=256)
    a = gw.round_with_space(g, emb, gs, trials=5_000, seed=42)
    b = gw.round_with_space(g, emb, gs, trials=5_000, seed=42)
    assert a.mean_cut == b.mean_cut


def test_k1600_rounding_mean_cut_is_pinned():
    """Acceptance criterion 11's k=1600 instance: 100,000 directions from
    seed 5, drawn in batches of 8,192, cut 370,416 edges in all."""
    c5 = gw.cycle_graph(5)
    emb = gw.generate_test_embedding(c5, "random_unit", dim=3, seed=11)
    rep = gw.round_with_space(c5, emb, spaces.build_kwise_gaussian(3, 1600),
                              trials=100_000, seed=5)
    assert rep.mean_cut == 3.70416


def test_cut_values_zero_inner_product_convention():
    """A direction exactly perpendicular to both endpoints assigns both
    the same side (ties go to +1), so it never cuts the edge."""
    g = gw.single_edge()
    emb = gw.Embedding(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    dirs = np.array([[0.0, 1.0]])
    cuts = gw._cut_values(g, emb, dirs)
    assert cuts.tolist() == [0.0]


def test_graph_file_round_trip(tmp_path):
    g = gw.cycle_graph(5)
    path = tmp_path / "g.graph"
    dump_graph(g, path)
    back = gw.load_graph(path)
    assert back.num_vertices == g.num_vertices
    assert back.edges == g.edges


def test_embedding_file_round_trip(tmp_path):
    g = gw.cycle_graph(4)
    emb = gw.generate_test_embedding(g, "random_unit", dim=3, seed=1)
    path = tmp_path / "e.emb"
    dump_embedding(emb, path)
    back = gw.load_embedding(path)
    assert np.allclose(back.vectors, emb.vectors, atol=1e-15)


def test_embedding_file_rejects_non_unit(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_text("1 2 0.5 0.0\n")
    with pytest.raises((ContractViolationError, ConfigurationError)):
        gw.load_embedding(path)
