import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def random_existing_graph(rng, n, scale=0.8, attempts=200):
    """A simulated graph whose unrestricted fit exists."""
    from pairlrt import beta_model, core

    for _ in range(attempts):
        beta = rng.uniform(-scale, scale, n)
        g = beta_model.simulate_graph(beta, rng)
        if not (np.any(g.degrees == 0) or np.any(g.degrees == n - 1)):
            fit = beta_model.fit_mle(g)
            if fit.exists:
                return beta, g
    raise RuntimeError("no existing instance found")


def degree_stack(graphs):
    """The degree stack Tallies(degrees, 1) of graphs on the same nodes, the graph fits' input for many graphs."""
    from pairlrt.core import Tallies

    return Tallies(np.array([g.degrees for g in graphs]), 1)


def random_connected_table(rng, n, k=4, scale=0.8, attempts=200):
    """A simulated comparison table that is strongly connected."""
    from pairlrt import bt_model

    for _ in range(attempts):
        beta = rng.uniform(-scale, scale, n)
        beta[0] = 0.0
        table = bt_model.simulate_comparisons(beta, k, rng)
        if bt_model.strongly_connected(table):
            return beta, table
    raise RuntimeError("no connected instance found")


def tied_class_map(n):
    """Node-to-class map: node 0 alone in class 0, nodes 1 and 2 tied in class 1, each later node alone."""
    return np.concatenate([[0, 1, 1], np.arange(2, n - 1)])


def win_stack(beta, k, gens):
    """The (len(gens), n, n) win matrices of one table drawn from each generator."""
    from pairlrt import bt_model

    n = np.size(beta)
    return np.array([bt_model.simulate_comparisons(beta, k, g).wins for g in gens]).reshape(-1, n, n)


def table_stack(wins, k):
    """A (count, n, n) stack of win matrices drawn on the design k as the comparison fits take it: win
    totals, the design's pair counts (bt_model.comparison_counts), and which tables are strongly connected."""
    from pairlrt import bt_model
    from pairlrt.core import Tallies

    wins = np.asarray(wins)
    n = wins.shape[-1]
    counts = bt_model.comparison_counts(k, n)
    played = wins + np.swapaxes(wins, -1, -2)
    assert np.array_equal(played, np.broadcast_to(counts * (1 - np.eye(n, dtype=np.int64)), played.shape))
    return bt_model.ComparisonStack(Tallies(wins.sum(axis=-1), counts),
                                    np.asarray(bt_model.strongly_connected(wins), dtype=bool).reshape(-1))
