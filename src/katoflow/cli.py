"""Experiment runner: every verification suite as a subcommand.

Configs are JSON; flags override config fields; --seed is mandatory.  Each
run writes per-suite CSV tables plus newline-delimited JSON records, and a
meta.json whose timestamp is the only non-reproducible byte.  Exit code 0
means every verdict holds, 1 flags a violated/inconclusive verdict, 2 an
invalid configuration.
"""

import argparse
import csv
import datetime
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds, coupling, feynman_kac as fk, functions, paths
from . import potentials as pot
from . import spaces
from .errors import ConfigError, KatoflowError, TooSmallTimeError
from .reports import (
    CATEGORICAL, HOLDS, INCONCLUSIVE, LOWER, TWO_SIDED, UPPER, VIOLATED, Check,
    jsonable, one_sided_verdict,
)


# the most path steps (t / grid_step, or khashminskii's steps) and Duhamel
# time steps a config may ask for: 41 times the fk and khashminskii defaults
_MAX_STEPS = 4096
# an fk estimate with an oracle must meet it to this fraction of its value
_ORACLE_TOLERANCE = 0.02
# each doubling of the Duhamel time steps must cut the residual by this much
_MIN_RATIO = 3.5

# a molecule file's fields, checked as --set checks the suite's m and nuclei
_MOLECULE_FILE = {"m": (None, int), "nuclei": (None, list)}


def _json(text, where):
    """The JSON value of a config text.  json admits NaN, Infinity and
    -Infinity, which no config value may be: each is a ConfigError."""
    def refuse(name):
        raise ConfigError(f"{where}: {name} is not a finite number")

    return json.loads(text, parse_constant=refuse)


def _molecule_from(file, m, nuclei):
    if file:
        try:
            with open(file) as fh:
                text = fh.read()
        except OSError as err:
            raise ConfigError(f"molecule file {file}: {err.strerror}")
        except ValueError:
            raise ConfigError(f"molecule file {file} cannot be decoded as text")
        try:
            data = _json(text, f"molecule file {file}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"molecule file {file} line {err.lineno}: {err.msg}")
        if not isinstance(data, dict):
            raise ConfigError(f"molecule file {file} must hold an object")
        return pot.load_molecule(_fields("file", _MOLECULE_FILE, data))
    if m is None or nuclei is None:
        raise ConfigError("a molecule needs a file, or m and nuclei")
    return pot.load_molecule({"m": m, "nuclei": nuclei})


def _bump(amplitude, width):
    bump = functions.SmoothBump(amplitude, width)
    return pot.BoundedPotential(spaces.euclidean(1), bump, bump.sup_norm,
                                min(bump.amplitude, 0.0), "bump")


# a spec is {tag: name, field: value, ...}: each name maps to its builder and
# the schema of the builder's keyword fields, read as in SUITES; a default of
# None that the type does not admit marks a field the spec must give
_SPACES = {
    "euclidean": (spaces.euclidean, {"d": (1, int)}),
    "sphere2": (spaces.sphere2, {"radius": (1.0, float)}),
}
_POTENTIALS = {
    "zero": (lambda dim: pot.ZeroPotential(spaces.euclidean(dim)), {"dim": (1, int)}),
    "constant": (lambda dim, c: pot.ConstantPotential(spaces.euclidean(dim), c),
                 {"dim": (1, int), "c": (None, float)}),
    "coulomb": (pot.CoulombPotential, {"center": ([0.0, 0.0, 0.0], list),
                                       "charge": (1.0, float),
                                       "attractive": (True, bool)}),
    "hydrogen": (pot.hydrogen, {}),
    "oscillator": (pot.OscillatorPotential, {}),
    "bump": (_bump, {"amplitude": (1.0, float), "width": (1.0, float)}),
    "molecular": (_molecule_from, {"file": (None, (str, type(None))),
                                   "m": (None, (int, type(None))),
                                   "nuclei": (None, (list, type(None)))}),
}
_PSIS = {
    "ones": (lambda: functions.Constant(1.0), {}),
    "hydrogen_ground": (functions.HydrogenGround, {}),
    "oscillator_ground": (functions.OscillatorGround, {}),
    "sign": (functions.Sign, {"threshold": (0.0, float)}),
    "ball": (functions.BallIndicator, {"center": ([0.0], list), "radius": (None, float)}),
}


def _build(what, tag, table, spec):
    fields = dict(spec)
    name = fields.pop(tag, None)
    if name not in table:
        raise ConfigError(f"{what}.{tag} must be {'|'.join(table)}, got {name!r}")
    make, schema = table[name]
    return make(**_fields(what, schema, fields))


def _space_from(spec):
    return _build("space", "kind", _SPACES, spec)


def _potential_from(spec):
    return _build("potential", "type", _POTENTIALS, spec)


def _psi_from(spec):
    return _build("psi", "type", _PSIS, spec)


# ---------------------------------------------------------------------------
# suite implementations: each returns its list of Checks; the checks of one
# table share their parameter keys, in order
# ---------------------------------------------------------------------------


def suite_kernel_checks(p, seed, workers):
    def check(name, space, t, value, tolerance, sidedness):
        return Check("kernel_checks", {"check": name, "space": space, "t": t},
                     value, tolerance, sidedness=sidedness)

    checks = []
    spaces_under_test = [
        ("euclidean(1)", spaces.euclidean(1), np.zeros(1)),
        ("euclidean(3)", spaces.euclidean(3), np.zeros(3)),
        ("sphere2(1)", spaces.sphere2(1.0), np.array([0.0, 0.0, 1.0])),
    ]
    for t in p["t_grid"]:
        for name, sp, x in spaces_under_test:
            defect = spaces.conservativeness_defect(sp, t, x)
            checks.append(check("conservativeness", name, t, defect, 1e-8, UPPER))
    e1 = spaces.euclidean(1)
    ck = spaces.chapman_kolmogorov_defect(
        e1, p["t_grid"][0], p["t_grid"][-1], np.array([0.2]), np.array([-0.4])
    )
    checks.append(
        check("chapman_kolmogorov", "euclidean(1)", p["t_grid"][0], ck, 1e-8, UPPER)
    )
    rng = np.random.default_rng(seed)
    for name, sp, x in spaces_under_test:
        y = sp.sample_transition(0.7, x, rng)
        z = sp.sample_transition(0.7, y, rng)
        sym = abs(sp.heat_kernel(0.7, y, z) - sp.heat_kernel(0.7, z, y))
        checks.append(check("symmetry", name, 0.7, sym, 0.0, UPPER))
    # KS marginal of the transition sampler
    e3 = spaces.euclidean(3)
    samples = e3.sample_transition_batch(0.6, np.zeros(3), p["n_ks"], rng)
    _d, pval = coupling.ks_normal(samples[:, 0], 0.0, math.sqrt(1.2))
    checks.append(check("sampler_marginal_ks", "euclidean(3)", 0.6, pval, 1e-3, LOWER))
    for name, sp, _x in spaces_under_test:
        c = spaces.li_yau_constant_scan(
            sp, t_grid=[0.25, 0.5, 0.9],
            dist_grid=np.linspace(0.0, 2.0, 6),
        )
        checks.append(check("li_yau_constant_scan", name, 0.9, c, 1e3, UPPER))
    return checks


def suite_moments(p, seed, workers):
    """Row i draws its sample from substream (seed, i)."""
    checks = []
    for d in p["dims"]:
        sp = spaces.euclidean(d)
        x = np.zeros(d)
        for t in p["t_grid"]:
            for order in (2, 4):
                est = spaces.moment_check(sp, t, x, order, p["n_samples"],
                                          (seed, len(checks)), workers=workers)
                checks.append(Check(
                    "moments", {"space": f"euclidean({d})", "t": t, "order": order},
                    est.value, spaces.exact_euclidean_moment(d, t, order),
                    est.stderr, TWO_SIDED,
                ))
    sp = spaces.sphere2(1.0)
    north = np.array([0.0, 0.0, 1.0])
    prev = math.inf
    for t in sorted(p["t_grid"], reverse=True):
        est = spaces.moment_check(sp, t, north, 2, p["n_samples"],
                                  (seed, len(checks)), workers=workers)
        parameters = {"space": "sphere2(1)", "t": t, "order": 2}
        try:
            expected = spaces.exact_sphere_moment(sp, t, 2)
            checks.append(Check("moments", parameters, est.value, expected,
                                est.stderr, TWO_SIDED))
        except TooSmallTimeError:  # below the certified range: only monotonicity
            checks.append(Check(
                "moments", parameters, est.value, math.nan, est.stderr,
                verdict=one_sided_verdict(est.value, prev, est.stderr, 0.0),
                details={"previous": prev},
            ))
        prev = est.value
    return checks


def suite_couple(p, seed, workers):
    """One mirror-coupling walk to the horizon max(t_grid): its survival at
    each t of t_grid, and the equivalence ladder and both legs' marginals at
    the horizon."""
    d = p["d"]
    sep = p["separation"]
    horizon = max(p["t_grid"])
    sp = spaces.euclidean(d)
    x = np.zeros(d)
    y = np.zeros(d)
    y[0] = sep
    ends = coupling.simulate_reflection_endpoints(
        sp, x, y, horizon, p["grid_step"], p["n_runs"], seed, workers=workers
    )
    checks = coupling.check_maximality(ends[2], d, sep, p["t_grid"])
    fam = functions.default_coupling_family(x, y)
    checks += coupling.check_equivalence_ladder(
        sp, x, y, horizon, p["alpha_grid"], fam, ends
    )
    # marginal KS on both legs
    xs, ys, _ = ends
    sig = math.sqrt(2 * horizon)
    for leg, arr, start in (("X", xs, x), ("Y", ys, y)):
        for axis in range(d):
            _d, pv = coupling.ks_normal(arr[:, axis], start[axis], sig)
            checks.append(Check("couple_marginals", {"leg": leg, "axis": axis, "t": horizon},
                                pv, 1e-3, sidedness=LOWER))
    return checks


def suite_kato(p, seed, workers):
    """The Monte Carlo row of the i-th (alpha, t) draws from substream (seed, i)."""
    v = _potential_from(p["potential"])
    checks = []
    for i, (alpha, t) in enumerate(itertools.product(p["alpha_grid"], p["t_grid"])):
        parameters = {"potential": v.name, "alpha": alpha, "t": t}
        quad = pot.kato_integral(v, alpha, t, method="quadrature")
        closed = v.closed_form_kato(alpha, t)
        exact = closed is not None and math.isfinite(closed)
        # a finite closed form must be met to 1e-6, relative; without one
        # the row only reports the bound
        checks.append(Check(
            "kato", {**parameters, "method": "quadrature"}, quad.bound,
            closed if closed is not None else math.nan, 0.0,
            TWO_SIDED if exact else CATEGORICAL, 1e-6 * abs(closed) if exact else 0.0,
            None if exact else HOLDS,
            details={"sup_witness": quad.sup_witness, **quad.details,
                     **({} if exact else {"reason": "no finite closed form"})},
        ))
        if p["mc_samples"] > 0 and math.isfinite(quad.bound):
            mc = pot.kato_integral(
                v, alpha, t, method="monte_carlo",
                n_samples=p["mc_samples"], seed=(seed, i), workers=workers,
            )
            ref = closed if closed is not None else quad.bound
            # only the closed form of an exact inner integral is the
            # value itself; any other reference is an upper bound of it
            exact_inner = exact and v.smoothed_abs_exact
            checks.append(Check(
                "kato", {**parameters, "method": "monte_carlo"}, mc.bound, ref,
                mc.stderr, TWO_SIDED if exact_inner else UPPER,
                1e-12 * abs(ref) if exact_inner else 0.0,
            ))
    for alpha in p["alpha_grid"]:
        res = pot.classify_kato(v, p["classify_t_grid"], alpha)
        checks.append(Check(
            "kato_classification",
            {"potential": v.name, "alpha": alpha, "status": res.status,
             "is_kato": res.is_kato},
            res.fitted_exponent, math.nan, sidedness=CATEGORICAL,
            verdict=HOLDS if res.status != "inconclusive" else INCONCLUSIVE,
        ))
    return checks


def _fk_oracle_reference(v, psi, x, t):
    """Closed-form eigen-oracle targets for the library pairs."""
    if v.is_zero and isinstance(psi, functions.Constant):
        return psi.c
    if isinstance(psi, functions.HydrogenGround) and isinstance(
        v, pot.MolecularPotential
    ):
        if v.m == 1 and v.l == 1 and v.Z[0] == 1.0 and not v.R.any():
            r = float(np.linalg.norm(np.asarray(x, dtype=float)))
            return math.exp(t / 4.0) * math.exp(-r / 2.0)
    if isinstance(psi, functions.OscillatorGround) and isinstance(
        v, pot.OscillatorPotential
    ):
        x0 = float(np.asarray(x, dtype=float).reshape(-1)[0])
        return math.exp(-t) * math.exp(-0.5 * x0 * x0)
    return None


def suite_fk(p, seed, workers):
    """Each estimate against its oracle; one without an oracle is reported
    as a categorical row that holds."""
    v = _potential_from(p["potential"])
    psi = _psi_from(p["psi"])
    x = np.asarray(p["x"], dtype=float)
    checks = []
    for t in p["t_grid"]:
        est = fk.fk_evaluate(
            v, psi, x, t, p["n_paths"], seed,
            grid_step=p["grid_step"], workers=workers,
        )
        ref = _fk_oracle_reference(v, psi, x, t)
        checks.append(Check(
            "fk",
            {"x": json.dumps(x.tolist()), "t": t, "n_paths": est.n_paths,
             "grid_step": est.action_integrator["grid_step"], "seed": json.dumps(seed)},
            est.value, math.nan if ref is None else float(ref), est.stderr,
            CATEGORICAL if ref is None else TWO_SIDED,
            0.0 if ref is None else _ORACLE_TOLERANCE * abs(float(ref)),
            HOLDS if ref is None else None,
            details={"flags": est.flags, **({"reason": "no oracle"} if ref is None else {})},
        ))
    return checks


def suite_khashminskii(p, seed, workers):
    v = _potential_from(p["potential"])
    r = p["r"]
    cert = fk.khashminskii_certify(v, r)
    x = np.asarray(p["x"], dtype=float)
    mean, se = fk.exp_action_moment(
        v, x, r, p["n_paths"], seed, grid_step=r / p["steps"], workers=workers
    )
    return [Check("khashminskii",
                  {"r": r, "kappa": cert.kappa, "subdivisions": cert.subdivisions},
                  mean, cert.bound_on_C_exp, se)]


def suite_duhamel(p, seed, workers):
    """Each doubling of the time steps must cut the residual by _MIN_RATIO."""
    v = _potential_from(p["potential"])
    psi = functions.SmoothBump(1.0, p["psi_width"])
    checks = []
    previous = None
    for m in p["step_ladder"]:
        res = fk.duhamel_residual(v, psi, p["t"], m)
        first = previous is None
        checks.append(Check(
            "duhamel", {"n_time_steps": m, "residual": res},
            math.nan if first else previous / res, _MIN_RATIO,
            sidedness=CATEGORICAL if first else LOWER, verdict=HOLDS if first else None,
            details={"reason": "no previous residual"} if first else {},
        ))
        previous = res
    return checks


def suite_holder(p, seed, workers):
    sp = _space_from(p["space"])
    f = functions.Sign() if isinstance(sp, spaces.Euclidean) else functions.HemisphereIndicator()
    checks = []
    for t in p["t_grid"]:
        checks.append(bounds.holder_quotient(sp, t, 1.0, f))
        checks += [bounds.holder_quotient(sp, t, alpha, f) for alpha in p["alpha_grid"]]
    return checks


def suite_theorem(p, seed, workers):
    v = _potential_from(p["potential"])
    phi = _psi_from(p["phi"])
    checks = [
        bounds.verify_main_theorem(
            v, phi, p["alpha"], t,
            n_paths=p["n_paths"], seed=seed, workers=workers,
        )
        for t in p["t_grid"]
    ]
    # degenerate reduction: V = 0 must collapse to the Hoelder/Lipschitz caps
    checks.append(bounds.verify_main_theorem(
        pot.ZeroPotential(spaces.euclidean(1)), functions.Sign(), p["alpha"],
        p["t_grid"][0],
    ))
    return checks


def suite_molecule(p, seed, workers):
    """The corollary_B row, row i of the table, draws from substream (seed, i)."""
    mol = _molecule_from(p["file"], p["m"], p["nuclei"])
    t = p["t"]

    def stage(name, alpha):
        return {"stage": name, "alpha": alpha}

    checks = []
    for alpha in p["alpha_grid"]:
        cert = pot.kato_integral(mol, alpha, t, method="quadrature")
        checks.append(Check("molecule", stage("kato_certificate", alpha), cert.bound,
                            mol.per_term_kato_closed_form(alpha, t), tol=1e-9))
    # classification: in K^alpha iff alpha < 1
    for alpha, expect in ((max(p["alpha_grid"]), "kato"), (1.0, "divergent")):
        res = pot.classify_kato(mol, p["classify_t_grid"], alpha)
        checks.append(Check(
            "molecule", stage("classification", alpha), res.fitted_exponent, math.nan,
            sidedness=CATEGORICAL, verdict=HOLDS if res.status == expect else VIOLATED,
            details={"status": res.status, "expected": expect},
        ))
    # corollary B from base-space terms
    vj = [
        pot.CoulombPotential((0, 0, 0), float(np.sum(mol.Z)))
        for _ in range(mol.m)
    ]
    n_pairs = mol.m * (mol.m - 1) // 2
    vij = [
        pot.CoulombPotential(
            (0, 0, 0), 1.0 / math.sqrt(2.0), attractive=False
        )
        for _ in range(n_pairs)
    ]
    alpha0 = p["alpha_grid"][len(p["alpha_grid"]) // 2]
    K = mol.space.ricci_lower_bound
    b = bounds.corollary_B_constant(vj, vij, K, alpha0, t)
    # the measured Hoelder quotient of e^{-tH_V} 1_ball against the
    # corollary's explicit constant; an infinite B bounds nothing
    q, se = math.nan, 0.0
    if math.isfinite(b):
        phi = functions.BallIndicator(np.zeros(3 * mol.m), 1.0)
        pairs = bounds.pair_grid_euclidean(
            mol.space, anchors=[np.zeros(3 * mol.m)], scale=1.0, k_max=3
        )
        q, se = bounds.measured_holder_quotient_mc(
            mol, phi, alpha0, t, pairs, p["n_paths"], (seed, len(checks)),
            workers=workers,
        )
    checks.append(Check(
        "molecule", stage("corollary_B", alpha0), q, bounds.holder_cap(K, t, alpha0) + b,
        se, verdict=None if math.isfinite(b) else VIOLATED, details={"B": b},
    ))
    # blow-up of the C-constant as alpha -> 1
    alphas = np.linspace(0.8, 0.98, 10)
    vals = [mol.per_term_kato_closed_form(a, t) * 2.0 ** (-a / 2) for a in alphas]
    slope = pot.fit_blowup_exponent(alphas, vals)
    checks.append(Check("molecule", stage("blowup_slope", math.nan), slope, -1.0,
                        sidedness=TWO_SIDED, tol=0.1))
    return checks


SUITES = {
    "kernel-checks": (
        suite_kernel_checks,
        {"t_grid": ([0.5, 1.0], list), "n_ks": (20000, int)},
    ),
    "moments": (
        suite_moments,
        {
            "dims": ([1, 3], list),
            "t_grid": ([0.25, 1.0], list),
            "n_samples": (20000, int),
        },
    ),
    "couple": (
        suite_couple,
        {
            "d": (1, int),
            "separation": (2.0, float),
            "t_grid": ([0.25, 1.0, 4.0], list),
            "grid_step": (0.125, float),
            "n_runs": (100000, int),
            "alpha_grid": ([0.25, 0.5, 1.0], list),
        },
    ),
    "kato": (
        suite_kato,
        {
            "potential": ({"type": "coulomb", "attractive": False}, dict),
            "alpha_grid": ([0.0, 0.25, 0.5, 0.75, 0.9], list),
            "t_grid": ([0.25, 1.0], list),
            "mc_samples": (100000, int),
            "classify_t_grid": ([1.0, 0.5, 0.25, 0.125], list),
        },
    ),
    "fk": (
        suite_fk,
        {
            "potential": ({"type": "zero", "dim": 1}, dict),
            "psi": ({"type": "ones"}, dict),
            "x": ([0.0], list),
            "t_grid": ([0.5], list),
            "n_paths": (10000, int),
            "grid_step": (None, (float, type(None))),
        },
    ),
    "khashminskii": (
        suite_khashminskii,
        {
            "potential": ({"type": "coulomb", "attractive": True}, dict),
            "r": (math.pi / 16, float),
            "x": ([0.0, 0.0, 0.0], list),
            "n_paths": (40000, int),
            "steps": (100, int),
        },
    ),
    "duhamel": (
        suite_duhamel,
        {
            "potential": ({"type": "bump", "amplitude": 1.0, "width": 1.0}, dict),
            "psi_width": (1.5, float),
            "t": (0.5, float),
            "step_ladder": ([8, 16, 32, 64], list),
        },
    ),
    "holder": (
        suite_holder,
        {
            "space": ({"kind": "euclidean", "d": 1}, dict),
            "t_grid": ([0.25, 1.0, 4.0], list),
            "alpha_grid": ([0.25, 0.5, 0.75], list),
        },
    ),
    "theorem": (
        suite_theorem,
        {
            "potential": ({"type": "hydrogen"}, dict),
            "phi": ({"type": "ball", "center": [0, 0, 0], "radius": 1.0}, dict),
            "alpha": (0.5, float),
            "t_grid": ([0.5, 1.0], list),
            "n_paths": (4000, int),
        },
    ),
    "molecule": (
        suite_molecule,
        {
            "file": (None, (str, type(None))),
            "m": (1, int),
            "nuclei": ([{"R": [0.0, 0.0, 0.0], "Z": 1.0}], list),
            "t": (1.0, float),
            "alpha_grid": ([0.25, 0.5, 0.75, 0.9], list),
            "classify_t_grid": ([1.0, 0.5, 0.25, 0.125], list),
            "n_paths": (3000, int),
        },
    ),
}


# ---------------------------------------------------------------------------
# config handling and output
# ---------------------------------------------------------------------------


_TYPE_NAMES = {list: "a list", dict: "an object", int: "an integer",
               float: "a number", bool: "true or false", str: "a string",
               type(None): "null"}


def _accepts(expected, value):
    """Whether a JSON value fits a schema type; true/false is never a number,
    and an int is a number with an integer value."""
    if isinstance(expected, tuple):
        return any(_accepts(e, value) for e in expected)
    if expected is int:
        return pot._is_number(value) and (isinstance(value, int) or value.is_integer())
    if expected is float:
        return pot._is_number(value)
    return isinstance(value, expected)


def _fields(where, schema, supplied):
    """The supplied values over the schema's defaults, each checked against
    its (default, type) entry; an integer is stored as an int."""
    params = {}
    for key, value in supplied.items():
        if key not in schema:
            raise ConfigError(f"unknown key {where}.{key}")
        default, expected = schema[key]
        names = expected if isinstance(expected, tuple) else (expected,)
        if not _accepts(expected, value):
            raise ConfigError(
                f"{where}.{key} must be "
                + " or ".join(_TYPE_NAMES[e] for e in names)
            )
        if value == []:
            raise ConfigError(f"{where}.{key} must not be empty")
        # a list whose default holds numbers must hold numbers, and one whose
        # default holds integers must hold integers, stored as ints
        if isinstance(default, list) and all(_accepts(float, v) for v in default):
            ints = all(isinstance(v, int) for v in default)
            if not all(_accepts(int if ints else float, v) for v in value):
                raise ConfigError(f"{where}.{key} must be a list of "
                                  + ("integers" if ints else "numbers"))
            if ints:
                value = [int(v) for v in value]
        if int in names and pot._is_number(value):
            value = int(value)
        if key == "classify_t_grid" and len(value) < 2:
            raise ConfigError(f"{where}.{key} needs at least two times")
        if key == "n_ks" and value < 1:
            raise ConfigError(f"{where}.{key} must be >= 1")
        params[key] = value
    for key, (default, expected) in schema.items():
        if key not in params and default is None and not _accepts(expected, None):
            raise ConfigError(f"{where}.{key} is required")
        params.setdefault(key, default)
    return params


def _check_points(suite, params, psi_key, start_key):
    """Refuse a ball ``psi_key`` whose center has neither length 1 nor the
    length of the potential's points, and a start ``start_key``, unless it
    is None, of another length than those points."""
    dim = _potential_from(params["potential"]).space.embedding_dim
    psi = _psi_from(params[psi_key])
    if isinstance(psi, functions.BallIndicator) and psi.center.size not in (1, dim):
        raise ConfigError(
            f"{suite}.{psi_key}'s ball center {psi.center.tolist()!r} must have "
            f"length 1 or the potential's dimension {dim}"
        )
    if start_key is not None and len(params[start_key]) != dim:
        raise ConfigError(
            f"{suite}.{start_key} = {params[start_key]!r} must have the "
            f"potential's dimension {dim}"
        )


def _validate(suite, supplied):
    params = _fields(suite, SUITES[suite][1], supplied)
    # the coupling simulators draw tau on the grid of grid_step up to the
    # horizon, and {tau > t} is exact only at a grid time
    if suite == "couple" and not (
        params["grid_step"] > 0
        and all(paths.whole_steps(t, params["grid_step"]) for t in params["t_grid"])
        and max(params["t_grid"]) / params["grid_step"] <= _MAX_STEPS
    ):
        raise ConfigError(
            f"couple.grid_step = {params['grid_step']!r} must be positive, divide "
            f"every time of t_grid {params['t_grid']!r} and leave at most "
            f"{_MAX_STEPS} steps"
        )
    # an fk path has t / grid_step steps
    if suite == "fk" and params["grid_step"] is not None and not (
        params["grid_step"] > 0
        and all(t / params["grid_step"] <= _MAX_STEPS for t in params["t_grid"])
    ):
        raise ConfigError(
            f"fk.grid_step = {params['grid_step']!r} must be positive and leave "
            f"t / grid_step at most {_MAX_STEPS} for every time of t_grid "
            f"{params['t_grid']!r}"
        )
    # statement (iii) of the equivalence ladder is stated for alpha in (0, 1]
    if suite == "couple" and not all(0 < a <= 1 for a in params["alpha_grid"]):
        raise ConfigError(
            f"couple.alpha_grid = {params['alpha_grid']!r} must lie in (0, 1]"
        )
    if suite == "theorem":
        _check_points(suite, params, "phi", None)
    if suite == "fk":
        _check_points(suite, params, "psi", "x")
    # the suite's classification expects a molecule in K^alpha iff alpha < 1
    if suite == "molecule" and not all(0 <= a < 1 for a in params["alpha_grid"]):
        raise ConfigError(
            f"molecule.alpha_grid = {params['alpha_grid']!r} must lie in [0, 1)"
        )
    if suite == "khashminskii" and not 1 <= params["steps"] <= _MAX_STEPS:
        raise ConfigError(
            f"khashminskii.steps = {params['steps']!r} must lie in [1, {_MAX_STEPS}]"
        )
    if suite == "duhamel" and not all(
        1 <= m <= _MAX_STEPS for m in params["step_ladder"]
    ):
        raise ConfigError(
            f"duhamel.step_ladder = {params['step_ladder']!r} must hold counts "
            f"in [1, {_MAX_STEPS}]"
        )
    return params


# a table's columns after its parameter keys
_COLUMNS = ("measured", "reference", "stderr", "verdict", "tightness")


def write_suite(out_dir, suite, seed, config, checks):
    """Write one computed suite's tables, records and meta line, print its
    verdict count, and return its exit code.

    Each check is one row of its table and one line of records.ndjson.  A
    table's columns are the parameter keys of its first check, then
    ``_COLUMNS``; a parameter the first check lacks raises.  Every record
    passes through ``jsonable`` once and is written as strict JSON."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = {}
    for c in checks:
        row = {**c.parameters, **{k: getattr(c, k) for k in _COLUMNS}}
        tables.setdefault(c.table, []).append(row)
    for name, rows in sorted(tables.items()):
        with open(out / f"{name}_results.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({k: _fmt(v) for k, v in row.items()} for row in rows)
    records = [{"record": "check", "suite": suite, **vars(c), "tightness": c.tightness}
               for c in checks]
    with open(out / "records.ndjson", "a") as fh:
        for rec in records:
            fh.write(json.dumps(jsonable(rec), sort_keys=True, allow_nan=False) + "\n")
    meta = {
        "suite": suite,
        "seed": seed,
        "config": config,
        "version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(out / "meta.json", "a") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
    n, bad = _verdict_count(records)
    print(f"{suite}: {n} verdicts, {bad} bad")
    return 0 if bad == 0 else 1


def _fmt(v):
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip; also unwraps np.float64
    return v


def _verdict_count(records):
    """(verdicts, verdicts that do not hold) among the records' verdict keys."""
    verdicts = [r["verdict"] for r in records if "verdict" in r]
    return len(verdicts), sum(v != HOLDS for v in verdicts)


def run_suite(suite, params, seed, workers=1):
    """Compute one suite: its list of Checks. Writes nothing."""
    fn, _schema = SUITES[suite]
    return fn(params, seed, workers)


def _label(rec):
    """A check record's table and parameters, as text."""
    params = "".join(f" {k}={v}" for k, v in rec.get("parameters", {}).items())
    return f"{rec.get('table', '?')}{params}"


def _nearness(rec):
    """How near a one-sided check record is to its reference: its tightness
    for an upper bound, the reciprocal for a lower one, so 1 is at the
    reference and more is past it; NaN for any other record."""
    tightness = rec.get("tightness")
    if isinstance(tightness, str) or tightness is None:  # "nan", "inf"
        return math.nan
    if rec.get("sidedness") == UPPER:
        return tightness
    if rec.get("sidedness") == LOWER:
        return 1.0 / tightness if tightness else math.inf
    return math.nan


def cmd_report(directory):
    """Per suite: its verdict count, its tightest one-sided check, and every
    check that does not hold."""
    path = Path(directory) / "records.ndjson"
    if not path.exists():
        print(f"no run artifacts under {directory}", file=sys.stderr)
        return 2
    by_suite = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            by_suite.setdefault(rec.get("suite", "?"), []).append(rec)
    exit_code = 0
    for suite, recs in sorted(by_suite.items()):
        n_verdicts, n_bad = _verdict_count(recs)
        status = "PASS" if n_bad == 0 else "FAIL"
        line = f"{suite}: {status} ({n_verdicts} verdicts, {n_bad} bad)"
        ranked = [r for r in recs if math.isfinite(_nearness(r))]
        if ranked:
            tightest = max(ranked, key=_nearness)
            line += f" tightest {_label(tightest)}: tightness {tightest['tightness']:.6g}"
        print(line)
        for r in recs:
            if r.get("verdict") not in (None, HOLDS):
                print(f"  {r['verdict']}: {_label(r)}: measured {r.get('measured')}, "
                      f"reference {r.get('reference')}")
                exit_code = 1
    if exit_code == 0:
        print("PASS")
    return exit_code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="katoflow",
        description="verification suites for coupling/Kato/Feynman-Kac numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for suite in SUITES:
        sp = sub.add_parser(suite, help=f"run the {suite} suite")
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, required=False)
        sp.add_argument("--out", default="katoflow-out")
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=JSON",
            help="override a config field, e.g. --set n_runs=1000",
        )
    allp = sub.add_parser("all", help="run every suite with shared defaults")
    allp.add_argument("--config", help="JSON config with per-suite sections")
    allp.add_argument("--seed", type=int, required=False)
    allp.add_argument("--out", default="katoflow-out")
    allp.add_argument("--workers", type=int, default=1)
    allp.add_argument("--suites", default=",".join(SUITES))
    rep = sub.add_parser("report", help="aggregate verdicts from a run directory")
    rep.add_argument("directory")
    return parser


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return _json(fh.read(), f"config {path}")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config line {err.lineno}: {err.msg}")


def _apply_overrides(cfg, pairs):
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"--set needs KEY=JSON, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            cfg[key] = _json(raw, f"--set {key}")
        except json.JSONDecodeError:
            cfg[key] = raw
    return cfg


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report":
        return cmd_report(args.directory)
    try:
        if args.seed is None:
            raise ConfigError("--seed is mandatory for verification suites")
        if args.command == "all":
            cfg = _load_config(args.config)
            for key in cfg:
                if key not in SUITES:
                    raise ConfigError(f"unknown key {key}")
            names = [suite.strip() for suite in args.suites.split(",")]
        else:  # one suite is `all` with one section
            cfg = {args.command: _apply_overrides(_load_config(args.config), args.set)}
            names = [args.command]
        # every suite is checked before the first one runs
        selected = []
        for suite in names:
            if suite not in SUITES:
                raise ConfigError(f"unknown suite {suite!r}")
            selected.append((suite, _validate(suite, cfg.get(suite, {}))))
        # a suite that raises leaves no artifacts of the suites before it
        results = [
            (suite, params, run_suite(suite, params, args.seed, args.workers))
            for suite, params in selected
        ]
        # a run starts the records and meta files afresh; its suites append
        for name in ("records.ndjson", "meta.json"):
            (Path(args.out) / name).unlink(missing_ok=True)
        return max(
            write_suite(args.out, suite, args.seed, params, checks)
            for suite, params, checks in results
        )
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except KatoflowError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
