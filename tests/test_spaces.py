import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import kwise_reference
from cube_reference import fwht, parity_column_for_points
from ptffool import cube, gf2, spaces
from ptffool.cube import subsets_up_to
from ptffool.errors import (ConfigurationError, InvalidOrderError,
                            ResourceBudgetError)

# sha256 of the file that dump_sample_space writes for
# build_kwise_bernoulli(8, 3); any change to the construction, its seed
# order or the text format moves it.
SPACE_8_3_SHA256 = "d645ee57b7561670208d0d9896f6de00a12523e22f86ab25e172c8ed06426759"

def test_vandermonde_bit_small_golden():
    sp = spaces.build_kwise_bernoulli(8, 2)
    assert sp.n == 8
    assert sp.k_claimed == 2
    assert sp.num_points == 2 ** sp.seed_bits
    rep = spaces.verify_kwise_exact(sp)
    assert rep.passed
    assert rep.worst_bias == Fraction(0)


def test_bch_parity_matches_claim():
    sp = spaces.build_kwise_bernoulli(16, 4, method="bch_parity")
    rep = spaces.verify_kwise_exact(sp)
    assert rep.passed, rep.worst_subset
    # one order past the claim must break, otherwise the construction
    # is wasting support
    over = spaces.verify_kwise_exact(sp, 5)
    assert not over.passed


def test_every_point_is_pm_one():
    sp = spaces.build_kwise_bernoulli(8, 3)
    pts = sp.points
    assert pts.dtype == np.int8
    assert set(np.unique(pts)) <= {-1, 1}


def test_subset_count_matches_enumeration():
    sp = spaces.build_kwise_bernoulli(8, 3)
    rep = spaces.verify_kwise_exact(sp)
    assert rep.subsets_checked == len(subsets_up_to(8, 3))


def test_parity_balance_by_hand():
    """Independent re-check of the verifier on one space: count parity
    agreement directly instead of trusting verify_kwise_exact."""
    sp = spaces.build_kwise_bernoulli(8, 2)
    for subset in [(0,), (3,), (0, 1), (2, 7), (5, 6)]:
        col = parity_column_for_points(sp.points, subset)
        assert int(col.astype(np.int64).sum()) == 0


def test_invalid_order_rejected():
    with pytest.raises(InvalidOrderError):
        spaces.build_kwise_bernoulli(8, 0)
    with pytest.raises(InvalidOrderError):
        spaces.build_kwise_bernoulli(8, 9)


def test_budget_enforced():
    with pytest.raises(ResourceBudgetError):
        spaces.build_kwise_bernoulli(60, 31)


def test_dump_load_round_trip(tmp_path):
    sp = spaces.build_kwise_bernoulli(8, 3)
    path = tmp_path / "s.space"
    spaces.dump_sample_space(sp, path)
    back = spaces.load_sample_space(path)
    assert back.n == sp.n
    assert back.k_claimed == sp.k_claimed
    assert np.array_equal(back.points, sp.points)
    spaces.dump_sample_space(back, tmp_path / "s2.space")
    assert (tmp_path / "s.space").read_bytes() == (tmp_path / "s2.space").read_bytes()


def test_sampling_stays_in_support():
    sp = spaces.build_kwise_bernoulli(8, 2)
    rows = {tuple(r) for r in sp.points}
    got = spaces.sample(sp, seed=5)
    assert tuple(got) in rows
    assert np.array_equal(got, sp.points[5])
    with pytest.raises(ValueError):
        spaces.sample(sp, sp.num_points)


def test_weighted_seed_sweep_reproduces_weights():
    sp = spaces.SampleSpace(n=2, k_claimed=1,
                            points=np.array([[1, 1], [1, -1], [-1, -1]], dtype=np.int8),
                            weights=[Fraction(1, 6), Fraction(0), Fraction(5, 6)])
    rows = [tuple(spaces.sample(sp, seed)) for seed in range(sp.num_seeds)]
    assert rows == [(1, 1)] + [(-1, -1)] * 5
    with pytest.raises(ValueError):
        spaces.sample(sp, 6)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10 ** 6))
def test_any_low_order_parity_is_balanced(k, salt):
    sp = spaces.build_kwise_bernoulli(10, 4)
    rng = np.random.default_rng(salt)
    subset = tuple(sorted(rng.choice(10, size=k, replace=False)))
    col = parity_column_for_points(sp.points, subset)
    assert int(col.astype(np.int64).sum()) == 0


def test_gaussian_inverse_cdf_marginals():
    gs = spaces.build_kwise_gaussian(4, 2, resolution=256)
    vals = spaces._quantiles(np.arange(gs.resolution), gs.resolution)
    # symmetric quantile grid: mean exactly zero, variance near one
    assert abs(float(np.mean(vals))) < 1e-12
    assert abs(float(np.mean(vals ** 2)) - 1.0) <= 0.01


def test_gaussian_rejects_coarse_resolution():
    with pytest.raises(ConfigurationError):
        spaces.build_kwise_gaussian(4, 2, resolution=16)


@pytest.mark.parametrize("q", [1 << 25, 1 << 40])
def test_gaussian_refuses_levels_beyond_the_field_before_the_grid(q):
    """GF(2^m) stops at m = 24, so q = 2^25 and up are refused before a
    grid of q quantiles is built."""
    with pytest.raises(ConfigurationError, match="field degree"):
        spaces.build_kwise_gaussian(3, 2, resolution=q)


@pytest.mark.parametrize("build", [spaces.build_kwise_bernoulli, spaces.build_kwise_gaussian])
@pytest.mark.parametrize("method", ["reed_solomon", "", "BCH_PARITY"])
def test_unknown_method_is_refused(build, method):
    with pytest.raises(ConfigurationError, match="unknown method"):
        build(4, 2, method=method)


def test_gaussian_pairwise_product_vanishes():
    """Under a 2-wise Gaussian space, E[z_i z_j] over the whole seed
    space must vanish exactly by parity symmetry."""
    gs = spaces.build_kwise_gaussian(3, 2, resolution=256)
    zs = gs.enumerate_samples()
    prod = zs[:, 0] * zs[:, 1]
    assert abs(float(np.mean(prod))) < 1e-10


def test_gaussian_binomial_sum_variance():
    gs = spaces.build_kwise_gaussian(4, 2, method="binomial_sum",
                                     resolution=400)
    rng = np.random.default_rng(0)
    batch = gs.sample_batch(4000, rng)
    assert batch.shape == (4000, 4)
    v = float(np.mean(batch ** 2))
    assert abs(v - 1.0) < 0.08


# --------------------------------------------------------------------------
# generator matrices and FWHT verification against the per-seed and
# per-subset oracles in kwise_reference


def test_generator_points_match_per_seed_oracle():
    """Every construction with n <= 16 and k <= 6, odd k included."""
    rng = np.random.default_rng(3)
    for n in range(1, 17):
        for k in range(1, min(n, 6) + 1):
            for method in ("vandermonde_bit", "bch_parity"):
                G = spaces._bernoulli_generator(n, k, method)
                cons = kwise_reference.construction(n, k, method)
                assert G.shape == (cons.seed_bits, n)
                num_seeds = 1 << cons.seed_bits
                if cons.seed_bits <= 14:
                    seeds = np.arange(num_seeds, dtype=np.uint64)
                    assert np.array_equal(spaces.build_kwise_bernoulli(n, k, method).points,
                                          kwise_reference.points_for_seeds(cons, seeds))
                for seed in [0, num_seeds - 1, *rng.integers(num_seeds, size=3)]:
                    assert np.array_equal(kwise_reference.point_from_generator(G, int(seed)),
                                          kwise_reference.point_from_seed(cons, int(seed)))


@pytest.mark.parametrize("n,k,method,resolution,count", [
    (3, 1, "inverse_cdf", None, 40),
    (3, 2, "inverse_cdf", 256, 300),
    (4, 5, "inverse_cdf", 1024, 77),
    (3, 1600, "inverse_cdf", None, 30),
    (4, 2, "binomial_sum", 16, 500),
    (3, 3, "binomial_sum", 64, 200),
    (5, 30, "inverse_cdf", None, 3000),     # 2 words of levels, 3 runs of tables
    (8, 40, "inverse_cdf", None, 5000),     # 3 words, 8 runs
])
def test_gaussian_samples_bit_identical_to_horner_oracle(n, k, method, resolution, count):
    gs = spaces.build_kwise_gaussian(n, k, method=method, resolution=resolution)
    fast, slow = np.random.default_rng(k), np.random.default_rng(k)
    for size in (count, 7, 0):          # the generator state must also agree
        assert np.array_equal(gs.sample_batch(size, fast),
                              kwise_reference.sample_batch(gs, size, slow))
    for seed in (0, 5, gs.num_seeds - 1, gs.num_seeds // 7):
        assert np.array_equal(gs.sample(seed), kwise_reference.sample(gs, seed))


def test_evaluation_generator_matches_full_product_oracle():
    """The multiply-by-x basis gives the generator of every Vandermonde
    construction with n <= 16 and k <= 6, and of the k=1600 Gaussian space."""
    for n in range(1, 17):
        for k in range(1, min(n, 6) + 1):
            cons = kwise_reference.construction(n, k, "vandermonde_bit")
            assert np.array_equal(spaces._bernoulli_generator(n, k, "vandermonde_bit"),
                                  kwise_reference.evaluation_generator(
                                      cons.eval_points, k, cons.m, 1))
    gs = spaces.build_kwise_gaussian(3, 1600)
    m, points = kwise_reference.inverse_cdf_field(gs)
    assert np.array_equal(gs.G, kwise_reference.evaluation_generator(
        points, 1600, m, gs.resolution.bit_length() - 1))


@pytest.mark.parametrize("levels", range(4, 21))
def test_quantile_grid_is_antisymmetric(levels):
    """Level q-1-i is exactly minus level i, so the lower half of the grid
    gives the variance that ``build_kwise_gaussian`` checks."""
    q = 1 << levels
    z = spaces._quantiles(np.arange(q), q)
    assert np.array_equal(z[::-1], -z)
    assert abs(spaces._marginal_variance(q) - float(np.mean(z * z))) <= 1e-14


def test_gaussian_enumeration_matches_per_seed_samples():
    """Both methods; binomial_sum with one word and with two per coordinate."""
    for method, resolution in (("inverse_cdf", 256), ("binomial_sum", 16),
                               ("binomial_sum", 100)):
        gs = spaces.build_kwise_gaussian(2, 2, method=method, resolution=resolution)
        zs = gs.enumerate_samples()
        assert zs.shape == (gs.num_seeds, 2)
        for seed in (0, 1, 777, gs.num_seeds - 1):
            assert np.array_equal(zs[seed], gs.sample(seed))
            assert np.array_equal(zs[seed], kwise_reference.sample(gs, seed))


@pytest.mark.parametrize("n,k,method,resolution", [
    (4, 5, "inverse_cdf", 1024),
    (5, 30, "inverse_cdf", None),
    (3, 3, "binomial_sum", 64),         # 3 seed bytes
    (2, 2, "binomial_sum", 401),        # 20 seed bits, 7 words per coordinate
    (2, 5, "binomial_sum", 64),         # 40 seed bits: two 32-bit draws per seed
])
def test_gaussian_samples_cross_table_runs(monkeypatch, n, k, method, resolution):
    """One seed block per run of tables: still the oracle's samples."""
    gs = spaces.build_kwise_gaussian(n, k, method=method, resolution=resolution)
    monkeypatch.setattr(spaces, "BLOCK_ELEMENTS", 1)
    fast, slow = np.random.default_rng(9), np.random.default_rng(9)
    for size in (300, 1):
        assert np.array_equal(gs.sample_batch(size, fast),
                              kwise_reference.sample_batch(gs, size, slow))
    seed = gs.num_seeds // 3
    assert np.array_equal(gs.sample(seed), kwise_reference.sample(gs, seed))


def _iid_sum_moment(N: int, a: int) -> Fraction:
    """E[S^a] for S the sum of N independent uniform ±1 values."""
    return Fraction(sum(math.comb(N, b) * (N - 2 * b) ** a for b in range(N + 1)), 2 ** N)


@pytest.mark.parametrize("n,k,N", [(2, 2, 16), (3, 2, 16), (3, 1, 20)])
def test_binomial_sum_matches_iid_moments_up_to_degree_2k(n, k, N):
    """Over every seed, each mixed moment of the integer sums
    S_i = N - 2 * ones of degree <= 2k is exactly its value under
    independent coordinates; some moment of degree 2k + 1 is not."""
    gs = spaces.build_kwise_gaussian(n, k, method="binomial_sum", resolution=N)
    scaled = gs.enumerate_samples() * math.sqrt(N)
    S = np.rint(scaled).astype(np.int64)
    assert np.allclose(scaled, S, rtol=0, atol=1e-9)
    def matches(exps):
        total = sum(int(v) for v in np.prod(S ** np.array(exps), axis=1))
        return Fraction(total, gs.num_seeds) == math.prod(_iid_sum_moment(N, a) for a in exps)
    def exponents(degree):
        return [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) == degree]
    assert all(matches(e) for d in range(2 * k + 1) for e in exponents(d))
    assert not all(matches(e) for e in exponents(2 * k + 1))


def test_binomial_sum_is_not_pairwise_independent():
    """n=2, k=2, N=16: the joint law of (z1, z2) over all 4,096 seeds is
    about 0.04 away from the product of its marginals."""
    gs = spaces.build_kwise_gaussian(2, 2, method="binomial_sum", resolution=16)
    zs = gs.enumerate_samples()
    _, codes = np.unique(zs, return_inverse=True)
    codes = codes.reshape(zs.shape)
    joint = np.zeros((codes.max() + 1,) * 2)
    np.add.at(joint, (codes[:, 0], codes[:, 1]), 1 / len(zs))
    gap = np.abs(joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))).max()
    assert 0.035 < gap < 0.045


def test_popcount_table_fallback_matches_bitwise_count(monkeypatch):
    """The 16-bit table path that numpy < 2 takes."""
    v = np.random.default_rng(2).integers(0, 2 ** 64, size=(50, 7), dtype=np.uint64)
    v[0, :3] = [0, 2 ** 64 - 1, 2 ** 63]
    want = np.bitwise_count(v)
    monkeypatch.delattr(np, "bitwise_count")
    got = gf2.popcount_u64(v)
    assert got.dtype == np.uint8 and np.array_equal(got, want)


@st.composite
def small_spaces(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.integers(min_value=1, max_value=24))
    bits = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                         min_size=rows, max_size=rows))
    points = np.where(np.array(bits), -1, 1).astype(np.int8)
    weights = None
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(min_value=0, max_value=9),
                            min_size=rows, max_size=rows).filter(any))
        weights = [Fraction(r, sum(raw)) for r in raw]
    order = draw(st.integers(min_value=0, max_value=n + 1))
    return spaces.SampleSpace(n=n, k_claimed=min(n, 3), points=points,
                              weights=weights), order


@settings(max_examples=60, deadline=None)
@given(small_spaces(), st.booleans())
def test_verify_matches_per_subset_oracle(case, fallback):
    space, order = case
    budget = 1 if fallback else spaces.config.SUPPORT_BUDGET
    saved, spaces.config.SUPPORT_BUDGET = spaces.config.SUPPORT_BUDGET, budget
    try:
        rep = spaces.verify_kwise_exact(space, order)
    finally:
        spaces.config.SUPPORT_BUDGET = saved
    assert rep.order == order
    assert (rep.passed, rep.subsets_checked, rep.worst_subset, rep.worst_bias,
            rep.failures) == kwise_reference.verify_per_subset(space, order)


def _no_fwht(values):
    raise AssertionError("verification took the Walsh-Hadamard path")


def test_verify_small_support_skips_the_full_transform(monkeypatch):
    """32 points at n = 24: 300 parities over 32 rows, not a 2^24 transform."""
    sp = spaces.build_kwise_bernoulli(24, 2, "bch_parity")
    monkeypatch.setattr(spaces, "fwht", _no_fwht)
    rep = spaces.verify_kwise_exact(sp)
    assert (sp.num_points, rep.passed, rep.subsets_checked) == (32, True, 300)
    assert not spaces.verify_kwise_exact(sp, 3).passed


def test_verify_large_support_uses_the_transform(monkeypatch):
    sp = spaces.build_kwise_bernoulli(12, 4)
    calls = []
    monkeypatch.setattr(spaces, "fwht", lambda v: calls.append(1) or fwht(v))
    assert spaces.verify_kwise_exact(sp).passed and calls == [1]


def test_verify_wide_space_per_parity_loop():
    """n = 32 > log2 of the budget: the per-parity loop, uniform and weighted."""
    sp = spaces.build_kwise_bernoulli(32, 3, "bch_parity")
    rep = spaces.verify_kwise_exact(sp)
    assert (rep.passed, rep.subsets_checked) == (True, 32 + 496 + 4960)
    weighted = spaces.SampleSpace(n=32, k_claimed=3, points=sp.points,
                                  weights=[Fraction(1, sp.num_points)] * sp.num_points)
    assert spaces.verify_kwise_exact(weighted).passed
    skewed = spaces.SampleSpace(n=32, k_claimed=3, points=sp.points[:3],
                                weights=[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    rep = spaces.verify_kwise_exact(skewed, 2)
    assert (rep.passed, rep.failures) == kwise_reference.verify_per_subset(skewed, 2)[::4]


def test_verify_weighted_huge_denominator_stays_exact(monkeypatch):
    """Numerators beyond int64 go through Python ints, not floats."""
    big = 2 ** 70
    space = spaces.SampleSpace(n=2, k_claimed=1,
                               points=np.array([[1, 1], [-1, -1]], dtype=np.int8),
                               weights=[Fraction(1, 2) + Fraction(1, big),
                                        Fraction(1, 2) - Fraction(1, big)])
    rep = spaces.verify_kwise_exact(space, 2)
    assert rep.failures == [((0,), Fraction(2, big)), ((1,), Fraction(2, big)),
                            ((0, 1), Fraction(1))]
    assert rep.failures == kwise_reference.verify_per_subset(space, 2)[4]
    monkeypatch.setattr(spaces.config, "SUPPORT_BUDGET", 1)    # parity by parity
    assert spaces.verify_kwise_exact(space, 2).failures == rep.failures


def test_verify_packs_sign_bits_in_row_blocks(monkeypatch):
    """Blocks of 7 rows on the transform path: the per-subset oracle's
    reports, uniform and weighted, passing and failing."""
    sp = spaces.build_kwise_bernoulli(8, 3)
    nums = np.random.default_rng(11).integers(1, 6, sp.num_points)
    weighted = spaces.SampleSpace(n=8, k_claimed=3, points=sp.points,
                                  weights=[Fraction(int(v), int(nums.sum())) for v in nums])
    monkeypatch.setattr(spaces, "BLOCK_ELEMENTS", 7 * 8)
    for space in (sp, weighted):
        for order in (3, 4):
            rep = spaces.verify_kwise_exact(space, order)
            assert (rep.passed, rep.subsets_checked, rep.worst_subset, rep.worst_bias,
                    rep.failures) == kwise_reference.verify_per_subset(space, order)


def test_verify_transform_memory_is_packed_rows_and_histogram():
    """n = 20, k = 4 (2^20 rows): the transform path holds the 8-byte
    histogram and one block of rows; a rows x n array of sign bools would
    add 20 MiB, a packed uint32 per row 4 MiB."""
    sp = spaces.build_kwise_bernoulli(20, 4)
    tracemalloc.start()
    try:
        rep = spaces.verify_kwise_exact(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.passed, rep.subsets_checked) == (True, 6195)
    assert peak <= 8 * (1 << 20) + (5 << 20), peak / 2 ** 20


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.data())
def test_fwht_is_its_own_inverse_up_to_size(n, data):
    values = np.array(data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                         min_size=1 << n, max_size=1 << n)),
                      dtype=np.int64)
    assert np.array_equal(fwht(fwht(values)), values << n)
    exact = fwht(values.astype(object) * 10 ** 30)
    assert list(exact) == [int(v) * 10 ** 30 for v in fwht(values)]


def test_fwht_entries_are_parity_sums():
    values = np.arange(1, 17, dtype=np.int64)
    spectrum = fwht(values)
    for subset in subsets_up_to(4, 4):
        chi = parity_column_for_points(cube.all_points(4), subset)
        assert spectrum[cube.subset_mask(subset)] == int(values @ chi)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.data())
def test_gf_mul_vec_matches_scalar_field_product(m, data):
    elems = st.integers(min_value=0, max_value=(1 << m) - 1)
    a = data.draw(st.lists(elems, min_size=1, max_size=8))
    b = data.draw(st.lists(elems, min_size=len(a), max_size=len(a)))
    got = gf2.gf_mul_vec(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64), m)
    assert got.tolist() == [kwise_reference.gf_mul(x, y, m) for x, y in zip(a, b)]
    assert gf2.gf_mul_vec(np.array(a, dtype=np.uint64), b[0], m).tolist() == \
        [kwise_reference.gf_mul(x, b[0], m) for x in a]


# --------------------------------------------------------------------------
# space files


def test_space_file_bytes_are_pinned(tmp_path):
    path = tmp_path / "s.space"
    spaces.dump_sample_space(spaces.build_kwise_bernoulli(8, 3), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SPACE_8_3_SHA256


def test_weighted_space_file_round_trip(tmp_path):
    space = spaces.SampleSpace(n=3, k_claimed=1,
                               points=np.array([[1, -1, 1], [-1, 1, -1]], dtype=np.int8),
                               weights=[Fraction(1, 3), Fraction(2, 3)])
    path = tmp_path / "w.space"
    spaces.dump_sample_space(space, path)
    assert path.read_text() == "3 1 2 weighted:1\n1 -1 1 1/3\n-1 1 -1 2/3\n"
    back = spaces.load_sample_space(path)
    assert np.array_equal(back.points, space.points)
    assert back.weights == space.weights


@st.composite
def space_files(draw):
    """A random ±1 table, n from 1 to 24, some with weights."""
    n = draw(st.integers(min_value=1, max_value=24))
    rows = draw(st.integers(min_value=1, max_value=120))
    points = draw(arrays(np.int8, (rows, n), elements=st.sampled_from([-1, 1])))
    weights = None
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(min_value=1, max_value=10 ** 9),
                            min_size=rows, max_size=rows))
        weights = [Fraction(r, sum(raw)) for r in raw]
    return spaces.SampleSpace(n=n, k_claimed=min(n, 3), points=points, weights=weights)


@settings(max_examples=60, deadline=None)
@given(space_files(), st.integers(min_value=4, max_value=256))
# every line opens with -1, so every parsed block after the first starts at
# a "-"; then lines opening with -1 and 1 by turns, about two to a block
@example(spaces.SampleSpace(n=1, k_claimed=1, points=-np.ones((90, 1), dtype=np.int8)), 10)
@example(spaces.SampleSpace(n=3, k_claimed=1, points=np.tile([[-1], [1]], (40, 3))
                            * np.array([[1, -1, 1]], dtype=np.int8)), 16)
def test_space_file_round_trip_across_blocks(tmp_path_factory, space, block):
    """load(dump(s)) == s when the reader takes the file in blocks of a few
    dozen bytes: blocks of many lines, lines longer than a block, and block
    ends right before a -1 line."""
    path = tmp_path_factory.mktemp("space") / "s.space"
    spaces.dump_sample_space(space, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "BLOCK_ELEMENTS", block)
        back = spaces.load_sample_space(path)
    assert (back.n, back.k_claimed) == (space.n, space.k_claimed)
    assert back.points.dtype == np.int8 and np.array_equal(back.points, space.points)
    assert back.weights == space.weights


def test_loading_a_space_file_peaks_at_its_bytes_table_and_a_few_blocks(tmp_path):
    """The n=16 Vandermonde file (65,536 lines over about five blocks) loads
    within its own bytes, the int8 point table and six blocks' temporaries."""
    path = tmp_path / "s.space"
    spaces.dump_sample_space(spaces.build_kwise_bernoulli(16, 4), path)
    size = path.stat().st_size
    spaces.load_sample_space(path)
    tracemalloc.start()
    try:
        back = spaces.load_sample_space(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 4 * gf2.BLOCK_ELEMENTS
    assert peak <= size + back.points.nbytes + 6 * gf2.BLOCK_ELEMENTS, peak / 2 ** 20
