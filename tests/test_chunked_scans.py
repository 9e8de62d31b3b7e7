"""Grid scans hold a bounded chunk of rows, not the whole (Ny, K) matrix,
the batched hedge trainer a bounded chunk of draws, Monte Carlo a few
doubles per game, and the correlated-equilibrium checks less than their
joint."""

import tracemalloc

import numpy as np
import pytest

from equalshare import analysis, games, learners
from equalshare.games import CHUNK_ENTRIES, payoff_vector, payoff_vectors_batch
from equalshare.sampling import GUIDE_CHUNK

# tracemalloc sees numpy's buffers; sdg(200)'s whole (Ny, K) weight matrix is 304 MB
PEAK_BYTES = 32 * 2**20


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, call", [
    ("exploitability_sdg200", lambda: analysis.exploitability(games.sdg(200), [0.0, 1.0, 0.0], method="grid")),
    ("minimax_independent_majority3", lambda: analysis.minimax_independent(games.majority3())),
])
def test_grid_scan_traced_peak_is_bounded(name, call):
    peak = _traced_peak(call)
    assert peak < PEAK_BYTES, f"{name}: traced peak {peak / 2**20:.1f} MB"


def test_identical_maxmin_holds_a_bounded_chunk_of_its_product():
    # sdg(30) at m=60 has 1,891 grid points: the whole (Nx, Ny) product is 27 MB
    peak = _traced_peak(lambda: analysis.minimax_identical(games.sdg(30), "maxmin"))
    assert peak < 12 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_independent_minmax_holds_a_bounded_chunk_of_its_values():
    # extended_majority(3,3) at m=60: the (A, Ny, Ny) values are 86 MB and
    # their (Ny, Ny) maxima 29 MB; the scan keeps only each chunk's minimum
    peak = _traced_peak(lambda: analysis.minimax_independent(games.extended_majority(3, 3)))
    assert peak < 3 * 8 * CHUNK_ENTRIES, f"traced peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("game, y, T", [
    (games.majority3(), [0.49, 0.51], 200_000),
    (games.sdg(30), [0.399, 0.6, 0.001], 20_000),
], ids=["mv", "sdg30"])
def test_batch_hedge_holds_a_bounded_chunk_of_its_gains(game, y, T):
    # 100 runs: one gather of every round's (T, runs, A) gains would be 320 MB
    # and 48 MB; a chunk of GUIDE_CHUNK draws holds a few doubles per draw
    # (its uniforms, buckets, actions and A <= 3 gains), under 4 MiB in all
    call = lambda: learners.batch_hedge_vs_fixed(game, np.array(y), T, 100, 0.5, np.random.default_rng(0))
    peak = _traced_peak(call)
    assert peak < 8 * 8 * GUIDE_CHUNK, f"traced peak {peak / 2**20:.1f} MB"


def test_batch_hedge_chunks_draw_what_one_chunk_draws(monkeypatch):
    game, y, T, runs = games.majority3(), np.array([0.49, 0.51]), 20_000, 100
    calls = []
    guided_actions = learners.guided_actions

    def spy(cdf, guide, u):
        calls.append((guide, u.size))
        return guided_actions(cdf, guide, u)

    monkeypatch.setattr(learners, "guided_actions", spy)
    chunked_rng = np.random.default_rng(4)
    chunked = learners.batch_hedge_vs_fixed(game, y, T, runs, 0.5, chunked_rng)
    sizes = [size for _, size in calls]
    assert len(sizes) > 1 and max(sizes) <= GUIDE_CHUNK and sum(sizes) == T * runs, sizes
    # one guide, built for all T * runs draws, serves every chunk
    assert calls[0][0] is not None and all(guide is calls[0][0] for guide, _ in calls)
    calls.clear()
    monkeypatch.setattr(learners, "GUIDE_CHUNK", T * runs)
    whole_rng = np.random.default_rng(4)
    whole = learners.batch_hedge_vs_fixed(game, y, T, runs, 0.5, whole_rng)
    assert [size for _, size in calls] == [T * runs]
    assert chunked_rng.random() == whole_rng.random()
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)


def test_monte_carlo_holds_a_few_doubles_per_game():
    # sdg(200): one uniform per opponent would be 199 doubles a game, 152 MB
    # at 100,000 games; one count row per game holds a few arrays of one
    # entry per game (actions, uniforms, cells, payoffs); the game's tables
    # are built before the trace
    game, num_games = games.sdg(200), 100_000
    game.payoff_matrix()
    peak = _traced_peak(lambda: analysis.monte_carlo_utility(game, [0, 1, 0], [0.399, 0.6, 0.001], num_games, 0))
    assert peak < 5 * 8 * num_games, f"traced peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("concept", ["ce", "cce"])
def test_correlated_checks_hold_less_than_their_joint(concept):
    # sdg(13)'s uniform joint is 3^13 doubles, 12.2 MB: each player's (A, K)
    # deviation table is built from count rows, not from the joint's layout
    game = games.sdg(13)
    joint = np.full((3,) * 13, 3.0**-13)
    peak = _traced_peak(lambda: analysis.check_equilibrium(game, joint, concept))
    assert peak < joint.nbytes, f"{concept}: traced peak {peak / 2**20:.1f} MB"


def test_chunked_payoff_vectors_equal_per_point_payoff_vectors(monkeypatch):
    game = games.sdg(200)
    K = game.count_table().counts.shape[0]
    per_chunk = CHUNK_ENTRIES // K
    rng = np.random.default_rng(7)
    ys = np.vstack([np.eye(3), rng.dirichlet(np.ones(3), 2 * per_chunk + 3)])
    chunks = []
    weights_batch = games.CountTable.weights_batch

    def spy(table, chunk):
        chunks.append(len(chunk))
        return weights_batch(table, chunk)

    monkeypatch.setattr(games.CountTable, "weights_batch", spy)
    batch = payoff_vectors_batch(game, ys)
    assert len(chunks) >= 3 and len(set(chunks)) > 1 and max(chunks) <= per_chunk, chunks
    assert sum(chunks) == len(ys)
    single = np.array([payoff_vector(game, y) for y in ys])
    np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12 * game.scale)


def test_row_chunks_splits_only_rows_that_do_not_fit():
    rows = np.arange(12.0).reshape(6, 2)
    chunks = games.row_chunks(rows, CHUNK_ENTRIES // 6)
    assert [len(c) for c in chunks] == [6]
    np.testing.assert_array_equal(np.concatenate(chunks), rows)
    chunks = games.row_chunks(rows, CHUNK_ENTRIES // 4)  # 4 rows per chunk: parts of 3 and 3
    assert [len(c) for c in chunks] == [3, 3]
    np.testing.assert_array_equal(np.concatenate(chunks), rows)


def _unchunked_search(score, grid, dims):
    """_grid_search's two scans as one argmin each over every candidate."""
    pts = grid.points()
    coarse = score(*(pts,) * dims)[..., 0]
    candidates = [analysis._refine_near(pts[i], grid.resolution)
                  for i in np.unravel_index(np.argmin(coarse), coarse.shape)]
    rows = score(*candidates)
    k = np.unravel_index(np.argmin(rows[..., 0]), rows.shape[:-1])
    return rows[k], [c[i] for c, i in zip(candidates, k)]


@pytest.mark.parametrize("dims, planted", [(1, [(6,), (10,)]), (2, [(6, 15), (10, 2)])], ids=["dims1", "dims2"])
def test_grid_search_keeps_the_first_minimum_across_chunks(monkeypatch, dims, planted):
    # equal minima at grid rows 6 and 10 of the coarse scan's chunks of
    # 5, 4, 4, 4 and 4 rows: the first lies in chunk 2, the other in chunk
    # 3 (at dims 2, earlier along the second axis).  The score is floored,
    # so the refined scan has a run of equal minima across its chunks too.
    grid = analysis.SimplexGrid(2, 20)
    pts = grid.points()
    seen = []

    def score(*axes):
        seen.append(len(axes[0]))
        coords = np.meshgrid(*(a[:, 0] for a in axes), indexing="ij")
        gap = np.min([sum(np.abs(c - pts[i, 0]) for c, i in zip(coords, p)) for p in planted], axis=0)
        return np.stack([np.floor(gap * 40) / 40, coords[0]], axis=-1)

    monkeypatch.setattr(games, "CHUNK_ENTRIES", 5 * len(grid) ** (dims - 1))
    row, points = analysis._grid_search(score, grid, 1, dims)
    assert seen[:5] == [5, 4, 4, 4, 4] and len(seen) > 6, seen
    want_row, want_points = _unchunked_search(score, grid, dims)
    assert row.tobytes() == want_row.tobytes() and row[1] == points[0][0]
    assert [p.tobytes() for p in points] == [p.tobytes() for p in want_points]
    assert all(abs(p[0] - pts[i, 0]) <= 1 / grid.resolution for p, i in zip(points, planted[0]))
