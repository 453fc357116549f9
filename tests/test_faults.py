"""A catalogue of planted faults that the verification suites must catch.

Each entry plants one fault in one layer, runs the suites that the layer
reaches at the sizes of the c12 config (``C12_CONFIG`` in
test_acceptance.py) and seed 99, and asserts which checks stop holding."""

from katoflow import cli, spaces
from katoflow.reports import HOLDS

C12_SIZES = {
    "couple": {"n_runs": 20000, "t_grid": [0.25, 1.0]},
    "kato": {"mc_samples": 20000},
}


def flipped(monkeypatch, suites, owner, attr, fault):
    """(table, parameters) of each check of the suites that holds on the code
    as it stands and no longer holds once ``owner.attr`` is ``fault`` of it."""
    def holding():
        return {(c.table, tuple(c.parameters.items()))
                for suite in suites
                for c in cli.run_suite(suite, cli._validate(suite, C12_SIZES[suite]), 99)
                if c.verdict == HOLDS}

    before = holding()
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    return [(table, dict(parameters)) for table, parameters in before - holding()]


def _longer_steps(move):
    """The fault: each step of ``move`` 1.1 times too long."""
    return lambda self, t, pts, rng: pts + 1.1 * (move(self, t, pts, rng) - pts)


def test_euclidean_move_steps_too_long_flip_the_couple_survival_rows(monkeypatch):
    """The mirror coupling walks with Euclidean.move, so a step 1.1 times too
    long moves its survival off the exact total variation at every t."""
    rows = flipped(monkeypatch, ["couple"], spaces.Euclidean, "move", _longer_steps)
    assert sorted(p["t"] for table, p in rows if table == "couple") == [0.25, 1.0]


def test_euclidean_move_steps_too_long_flip_every_kato_monte_carlo_row(monkeypatch):
    """The Kato Monte Carlo draws its points with Euclidean.move."""
    rows = flipped(monkeypatch, ["kato"], spaces.Euclidean, "move", _longer_steps)
    monte_carlo = {(p["alpha"], p["t"]) for table, p in rows
                   if table == "kato" and p["method"] == "monte_carlo"}
    assert len(monte_carlo) == 10  # 5 alphas by 2 times
    assert all(p["method"] == "monte_carlo" for table, p in rows if table == "kato")
