"""The benchmark's workloads: what each runs, and what its trace must show.

Every workload is one ``katoflow`` CLI call with a fixed config file; the
benchmark seed becomes the CLI's ``--seed`` unchanged.  Why each workload
exists is written in ``README.md`` next to this file.
"""

import csv
from dataclasses import dataclass

# tests/test_acceptance.py::test_c12_determinism, the ROADMAP's end-to-end run
C12_CONFIG = {
    "couple": {"n_runs": 20000, "t_grid": [0.25, 1.0]},
    "moments": {"n_samples": 12000},
    "kato": {"mc_samples": 20000},
    "fk": {},
    "kernel-checks": {"n_ks": 12000},
    "khashminskii": {"n_paths": 12000},
    "theorem": {"n_paths": 1200, "t_grid": [0.5]},
    "molecule": {"n_paths": 1200},
    "holder": {"t_grid": [0.5]},
    "duhamel": {},
}

# a few seconds per workload; used by the self-test, never by a measured run
C12_SMOKE_CONFIG = {
    "couple": {"n_runs": 10000, "t_grid": [0.25, 1.0]},
    "moments": {"dims": [1], "t_grid": [0.25], "n_samples": 10000},
    "kato": {"mc_samples": 2000, "alpha_grid": [0.0, 0.5]},
    "fk": {"n_paths": 500},
    "kernel-checks": {"n_ks": 2000},
    "khashminskii": {"n_paths": 500},
    "theorem": {"n_paths": 64, "t_grid": [0.5]},
    "molecule": {"n_paths": 64, "alpha_grid": [0.25, 0.5]},
    "holder": {"t_grid": [0.5], "alpha_grid": [0.5]},
    "duhamel": {"step_ladder": [8, 16]},
}

THEOREM_CONFIG = {
    "potential": {"type": "hydrogen"},
    "phi": {"type": "ball", "center": [0, 0, 0], "radius": 1.0},
    "t_grid": [0.5],
    "n_paths": 1024,
}


def _csv_rows(out_dir, table):
    with open(out_dir / f"{table}_results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def theorem_stderr(out_dir):
    """Worst-pair stderr of the Feynman-Kac theorem verdicts (not V = 0)."""
    rows = _csv_rows(out_dir, "theorem")
    return max(float(r["stderr"]) for r in rows if r["potential"] != "zero")


def sphere_moment_stderr(out_dir):
    """Largest stderr among the sphere rows of the moments table."""
    rows = _csv_rows(out_dir, "moments")
    return max(float(r["stderr"]) for r in rows if r["space"].startswith("sphere2"))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # katoflow subcommand
    workers: int
    config: dict
    smoke_config: dict
    tables: tuple  # result tables every run must write
    stderr_of: object  # out_dir -> the stderr time_to_target_s projects
    target_stderr: float  # the accuracy time_to_target_s projects to
    exercised: tuple  # per-layer metrics a traced run must see nonzero
    predicted_zero: tuple = ()  # ... and must see zero


ALL_SUITES = (
    "kernel-checks", "moments", "couple", "kato", "fk",
    "khashminskii", "duhamel", "holder", "theorem", "molecule",
)

_FK_LAYERS = (
    "feynman_kac.fk_evaluate.calls",
    "feynman_kac.leaves",
    "feynman_kac.engine.self_s",
    "potentials.eval.points",
    "potentials.singularity_distance.points",
)
_SPHERE_LAYERS = ("spaces.sphere.transitions", "spaces.sphere.busy_s")
_POTENTIAL_LAYERS = (
    "potentials.eval.points",
    "potentials.singularity_distance.points",
    "potentials.kato_integral.closed_form.calls",
    "potentials.kato_integral.quadrature.calls",
    "potentials.kato_integral.monte_carlo.calls",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="theorem-hydrogen",
            command="theorem",
            workers=2,
            config=THEOREM_CONFIG,
            smoke_config=dict(THEOREM_CONFIG, n_paths=64),
            tables=("theorem",),
            stderr_of=theorem_stderr,
            target_stderr=0.01,
            exercised=(
                "cli.suite.theorem.wall_s",
                "streams.chunks",
                "bounds.verify_main_theorem.busy_s",
                "bounds.quadrature.busy_s",
                "potentials.kato_integral.quadrature.calls",
            ) + _FK_LAYERS,
            predicted_zero=_SPHERE_LAYERS,
        ),
        Workload(
            name="sphere-moments",
            command="moments",
            workers=1,
            config={},
            smoke_config={"dims": [1], "t_grid": [0.25], "n_samples": 10000},
            tables=("moments",),
            stderr_of=sphere_moment_stderr,
            target_stderr=0.001,
            exercised=(
                "cli.suite.moments.wall_s",
                "streams.chunks",
                "spaces.euclidean.busy_s",
            ) + _SPHERE_LAYERS,
            predicted_zero=_POTENTIAL_LAYERS + ("feynman_kac.fk_evaluate.calls",),
        ),
        Workload(
            name="suite-all-c12",
            command="all",
            workers=1,
            config=C12_CONFIG,
            smoke_config=C12_SMOKE_CONFIG,
            tables=(
                "couple", "couple_equivalence", "couple_marginals", "duhamel",
                "fk", "holder", "kato", "kato_classification", "kernel_checks",
                "khashminskii", "molecule", "moments", "theorem",
            ),
            stderr_of=theorem_stderr,
            target_stderr=0.01,
            exercised=tuple(f"cli.suite.{s}.wall_s" for s in ALL_SUITES) + (
                "streams.chunks",
                "spaces.euclidean.busy_s",
                "potentials.kato_integral.quadrature.calls",
                "potentials.kato_integral.monte_carlo.calls",
                "feynman_kac.exp_action_moment.busy_s",
                "feynman_kac.duhamel_residual.busy_s",
                "coupling.reflection.runs",
                "bounds.verify_main_theorem.busy_s",
                "bounds.measured_holder_quotient_mc.busy_s",
                "bounds.quadrature.busy_s",
            ) + _FK_LAYERS + _SPHERE_LAYERS,
        ),
    )
}
