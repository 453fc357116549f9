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
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds, coupling, feynman_kac as fk, functions
from . import potentials as pot
from . import spaces
from .errors import ConfigError, KatoflowError, TooSmallTimeError
from .reports import HOLDS, BoundReport, jsonable, one_sided_verdict, two_sided_verdict


def _space_from(spec):
    if spec.get("kind") == "euclidean":
        return spaces.euclidean(int(spec.get("d", 1)))
    if spec.get("kind") == "sphere2":
        return spaces.sphere2(float(spec.get("radius", 1.0)))
    raise ConfigError(f"space.kind must be euclidean|sphere2, got {spec.get('kind')!r}")


def _potential_from(spec):
    kind = spec.get("type")
    if kind == "zero":
        return pot.ZeroPotential(spaces.euclidean(int(spec.get("dim", 1))))
    if kind == "constant":
        return pot.ConstantPotential(
            spaces.euclidean(int(spec.get("dim", 1))), float(spec["c"])
        )
    if kind == "coulomb":
        return pot.CoulombPotential(
            spaces.euclidean(3),
            spec.get("center", (0.0, 0.0, 0.0)),
            float(spec.get("charge", 1.0)),
            bool(spec.get("attractive", True)),
        )
    if kind == "hydrogen":
        return pot.hydrogen()
    if kind == "oscillator":
        return pot.OscillatorPotential(spaces.euclidean(1))
    if kind == "bump":
        amp = float(spec.get("amplitude", 1.0))
        return pot.BoundedPotential(
            spaces.euclidean(1),
            functions.SmoothBump(amp, float(spec.get("width", 1.0))),
            sup_norm=abs(amp),
            lower_bound=min(amp, 0.0),
            name="bump",
        )
    if kind == "molecular":
        if "file" in spec:
            return pot.load_molecule(spec["file"])
        return pot.load_molecule({"m": spec["m"], "nuclei": spec["nuclei"]})
    raise ConfigError(f"unknown potential type {kind!r}")


def _psi_from(spec):
    kind = spec.get("type")
    if kind == "ones":
        return functions.Constant(1.0)
    if kind == "hydrogen_ground":
        return functions.HydrogenGround()
    if kind == "oscillator_ground":
        return functions.OscillatorGround()
    if kind == "sign":
        return functions.Sign(float(spec.get("threshold", 0.0)))
    if kind == "ball":
        return functions.BallIndicator(spec.get("center", (0.0,)), float(spec["radius"]))
    raise ConfigError(f"unknown psi type {kind!r}")


# ---------------------------------------------------------------------------
# suite implementations: each returns ({table: rows}, reports); a table's
# columns are the keys of its rows, in order
# ---------------------------------------------------------------------------


def suite_kernel_checks(p, seed, workers):
    rows = []
    spaces_under_test = [
        ("euclidean(1)", spaces.euclidean(1), np.zeros(1)),
        ("euclidean(3)", spaces.euclidean(3), np.zeros(3)),
        ("sphere2(1)", spaces.sphere2(1.0), np.array([0.0, 0.0, 1.0])),
    ]
    for t in p["t_grid"]:
        for name, sp, x in spaces_under_test:
            defect = spaces.conservativeness_defect(sp, t, x)
            rows.append(
                {
                    "check": "conservativeness",
                    "space": name,
                    "t": t,
                    "value": defect,
                    "tolerance": 1e-8,
                    "verdict": HOLDS if defect < 1e-8 else "violated",
                }
            )
    e1 = spaces.euclidean(1)
    ck = spaces.chapman_kolmogorov_defect(
        e1, p["t_grid"][0], p["t_grid"][-1], np.array([0.2]), np.array([-0.4])
    )
    rows.append(
        {
            "check": "chapman_kolmogorov",
            "space": "euclidean(1)",
            "t": p["t_grid"][0],
            "value": ck,
            "tolerance": 1e-8,
            "verdict": HOLDS if ck < 1e-8 else "violated",
        }
    )
    rng = np.random.default_rng(seed)
    for name, sp, x in spaces_under_test:
        y = sp.sample_transition(0.7, x, rng)
        z = sp.sample_transition(0.7, y, rng)
        sym = abs(sp.heat_kernel(0.7, y, z) - sp.heat_kernel(0.7, z, y))
        rows.append(
            {
                "check": "symmetry",
                "space": name,
                "t": 0.7,
                "value": sym,
                "tolerance": 0.0,
                "verdict": HOLDS if sym == 0.0 else "violated",
            }
        )
    # KS marginal of the transition sampler
    from scipy import stats as sstats  # lazy: ~0.6 s to import

    e3 = spaces.euclidean(3)
    samples = e3.sample_transition_batch(0.6, np.zeros(3), p["n_ks"], rng)
    pval = float(
        sstats.kstest(samples[:, 0], "norm", args=(0.0, math.sqrt(1.2))).pvalue
    )
    rows.append(
        {
            "check": "sampler_marginal_ks",
            "space": "euclidean(3)",
            "t": 0.6,
            "value": pval,
            "tolerance": 1e-3,
            "verdict": HOLDS if pval > 1e-3 else "violated",
        }
    )
    for name, sp, _x in spaces_under_test:
        c = spaces.li_yau_constant_scan(
            sp, t_grid=[0.25, 0.5, 0.9],
            dist_grid=np.linspace(0.0, 2.0, 6),
        )
        rows.append(
            {
                "check": "li_yau_constant_scan",
                "space": name,
                "t": 0.9,
                "value": c,
                "tolerance": 1e3,
                "verdict": HOLDS if c < 1e3 else "violated",
            }
        )
    return {"kernel_checks": rows}, []


def suite_moments(p, seed, workers):
    rows = []
    for d in p["dims"]:
        sp = spaces.euclidean(d)
        x = np.zeros(d)
        for t in p["t_grid"]:
            for order in (2, 4):
                est = spaces.moment_check(sp, t, x, order, p["n_samples"], seed,
                                          workers=workers)
                expected = spaces.exact_euclidean_moment(d, t, order)
                rows.append(
                    {
                        "space": f"euclidean({d})",
                        "t": t,
                        "order": order,
                        "estimate": est.value,
                        "stderr": est.stderr,
                        "expected": expected,
                        "verdict": two_sided_verdict(est.value, expected, est.stderr),
                    }
                )
    sp = spaces.sphere2(1.0)
    north = np.array([0.0, 0.0, 1.0])
    prev = math.inf
    for t in sorted(p["t_grid"], reverse=True):
        est = spaces.moment_check(sp, t, north, 2, p["n_samples"], seed,
                                  workers=workers)
        try:
            expected = spaces.exact_sphere_moment(sp, t, 2)
            verdict = two_sided_verdict(est.value, expected, est.stderr)
        except TooSmallTimeError:  # below the certified range: only monotonicity
            expected = float("nan")
            verdict = HOLDS if est.value <= prev + 3 * est.stderr else "violated"
        rows.append(
            {
                "space": "sphere2(1)",
                "t": t,
                "order": 2,
                "estimate": est.value,
                "stderr": est.stderr,
                "expected": expected,
                "verdict": verdict,
            }
        )
        prev = est.value
    return {"moments": rows}, []


def suite_couple(p, seed, workers):
    d = p["d"]
    sep = p["separation"]
    t_grid = p["t_grid"]
    horizon = max(t_grid)
    taus = coupling.simulate_reflection_taus(
        sep, horizon, p["grid_step"], p["n_runs"], seed, workers=workers
    )
    report, rows = coupling.check_maximality(taus, d, sep, t_grid)
    for row in rows:
        exact = coupling.reflection_survival_exact(sep, row["t"])
        row["verdict"] = (
            row["verdict"]
            if abs(row["p_tau_gt_t"] - exact) <= 3 * row["stderr"] + 1e-3
            else "violated"
        )
    csv_rows = [
        {k: v for k, v in r.items() if k != "maximality_conventions"} for r in rows
    ]
    reports = [report]
    sp = spaces.euclidean(d)
    x = np.zeros(d)
    y = np.zeros(d)
    y[0] = sep
    t_eq = t_grid[len(t_grid) // 2]
    ends = coupling.simulate_reflection_endpoints(
        sp, x, y, t_eq, p["grid_step"], p["n_runs"], seed, workers=workers
    )
    fam = functions.default_coupling_family(x, y)
    eq_report, eq_rows = coupling.check_equivalence_ladder(
        sp, x, y, t_eq, p["alpha_grid"], fam, ends
    )
    reports.append(eq_report)
    # marginal KS on both legs
    xs, ys, _ = ends
    sig = math.sqrt(2 * t_eq)
    from scipy import stats as sstats  # lazy: ~0.6 s to import

    ks_rows = []
    for leg, arr, start in (("X", xs, x), ("Y", ys, y)):
        for axis in range(d):
            pv = float(
                sstats.kstest(arr[:, axis], "norm", args=(start[axis], sig)).pvalue
            )
            ks_rows.append(
                {
                    "leg": leg,
                    "axis": axis,
                    "t": t_eq,
                    "p_value": pv,
                    "verdict": HOLDS if pv > 1e-3 else "violated",
                }
            )
    return {
        "couple": csv_rows,
        "couple_equivalence": eq_rows,
        "couple_marginals": ks_rows,
    }, reports


def suite_kato(p, seed, workers):
    v = _potential_from(p["potential"])
    rows = []
    t_cert = max(p["t_grid"])
    cert_records = []  # the quadrature certificate at t_cert, per alpha
    for alpha in p["alpha_grid"]:
        for t in p["t_grid"]:
            quad = pot.kato_integral(v, alpha, t, method="quadrature")
            if t == t_cert:
                cert = quad
            closed = v.closed_form_kato(alpha, t)
            exact = closed is not None and math.isfinite(closed)
            row = {
                "potential": v.name,
                "alpha": alpha,
                "t": t,
                "method": "quadrature",
                "bound": quad.bound,
                "stderr": 0.0,
                "reference": closed if closed is not None else float("nan"),
                "verdict": HOLDS,
            }
            if exact:
                rel = abs(quad.bound - closed) / closed if closed else 0.0
                row["verdict"] = HOLDS if rel < 1e-6 else "violated"
            rows.append(row)
            if p["mc_samples"] > 0 and math.isfinite(quad.bound):
                mc = pot.kato_integral(
                    v, alpha, t, method="monte_carlo",
                    n_samples=p["mc_samples"], seed=seed, workers=workers,
                )
                ref = closed if closed is not None else quad.bound
                # only the closed form of an exact inner integral is the
                # value itself; any other reference is an upper bound of it
                if exact and v.smoothed_abs_exact:
                    verdict = two_sided_verdict(mc.bound, ref, mc.stderr,
                                                1e-12 * abs(ref))
                else:
                    verdict = one_sided_verdict(mc.bound, ref, mc.stderr)
                rows.append(
                    {
                        "potential": v.name,
                        "alpha": alpha,
                        "t": t,
                        "method": "monte_carlo",
                        "bound": mc.bound,
                        "stderr": mc.stderr,
                        "reference": ref,
                        "verdict": verdict,
                    }
                )
        cert_records.append({**cert.to_dict(), "potential": v.name})
    cls_rows = []
    for alpha in p["alpha_grid"]:
        res = pot.classify_kato(v, p["classify_t_grid"], alpha)
        cls_rows.append(
            {
                "potential": v.name,
                "alpha": alpha,
                "status": res.status,
                "is_kato": res.is_kato,
                "fitted_exponent": res.fitted_exponent,
                "verdict": HOLDS if res.status != "inconclusive" else "inconclusive",
            }
        )
    return {"kato": rows, "kato_classification": cls_rows}, cert_records


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
    v = _potential_from(p["potential"])
    psi = _psi_from(p["psi"])
    x = np.asarray(p["x"], dtype=float)
    rows = []
    for t in p["t_grid"]:
        est = fk.fk_evaluate(
            v, psi, x, t, p["n_paths"], seed,
            grid_step=p["grid_step"], workers=workers,
        )
        ref = p.get("reference_values", {}).get(str(t))
        if ref is None:
            ref = _fk_oracle_reference(v, psi, x, t)
        row = est.to_dict()
        row.pop("record")
        row.pop("flags")
        row["x"] = json.dumps(row["x"])
        row["seed"] = json.dumps(row["seed"])
        row["reference"] = ref if ref is not None else float("nan")
        row["verdict"] = (
            two_sided_verdict(est.value, float(ref), est.stderr,
                              p["oracle_tolerance"] * abs(float(ref)))
            if ref is not None
            else HOLDS
        )
        rows.append(row)
    return {"fk": rows}, []


def suite_khashminskii(p, seed, workers):
    v = _potential_from(p["potential"])
    r = p["r"]
    cert = fk.khashminskii_certify(v, r)
    x = np.asarray(p["x"], dtype=float)
    if p["steps"] < 1:
        raise ConfigError("steps must be >= 1")
    mean, se = fk.exp_action_moment(
        v, x, r, p["n_paths"], seed, grid_step=r / p["steps"], workers=workers
    )
    verdict = one_sided_verdict(mean, cert.bound_on_C_exp, se)
    rows = [
        {
            "r": r,
            "kappa": cert.kappa,
            "bound_on_C_exp": cert.bound_on_C_exp,
            "subdivisions": cert.subdivisions,
            "empirical_exp_moment": mean,
            "stderr": se,
            "verdict": verdict,
        }
    ]
    report = BoundReport(
        "khashminskii_exp_moment",
        {"r": r, "kappa": cert.kappa},
        cert.bound_on_C_exp,
        mean,
        se,
        verdict,
    )
    return {"khashminskii": rows}, [report]


def suite_duhamel(p, seed, workers):
    v = _potential_from(p["potential"])
    psi = functions.SmoothBump(1.0, p["psi_width"])
    residuals = []
    rows = []
    for m in p["step_ladder"]:
        res = fk.duhamel_residual(v, psi, p["t"], m)
        residuals.append(res)
        ratio = residuals[-2] / res if len(residuals) > 1 else float("nan")
        rows.append(
            {
                "n_time_steps": m,
                "residual": res,
                "ratio_vs_previous": ratio,
                "verdict": HOLDS
                if (len(residuals) == 1 or ratio >= p["min_ratio"])
                else "violated",
            }
        )
    return {"duhamel": rows}, []


def suite_holder(p, seed, workers):
    sp = _space_from(p["space"])
    f = functions.Sign() if sp.kind == "euclidean" else functions.HemisphereIndicator()
    rows = []
    reports = []
    for t in p["t_grid"]:
        rep_l = bounds.lipschitz_quotient(sp, t, f)
        reports.append(rep_l)
        rows.append(
            {
                "space": sp.kind,
                "f": type(f).__name__,
                "t": t,
                "alpha": 1.0,
                "measured": rep_l.empirical_value,
                "cap": rep_l.theoretical_value,
                "verdict": rep_l.verdict,
            }
        )
        for alpha in p["alpha_grid"]:
            rep = bounds.holder_quotient(sp, t, alpha, f)
            reports.append(rep)
            rows.append(
                {
                    "space": sp.kind,
                    "f": type(f).__name__,
                    "t": t,
                    "alpha": alpha,
                    "measured": rep.empirical_value,
                    "cap": rep.theoretical_value,
                    "verdict": rep.verdict,
                }
            )
    return {"holder": rows}, reports


def suite_theorem(p, seed, workers):
    v = _potential_from(p["potential"])
    phi = _psi_from(p["phi"])
    rows = []
    reports = []
    for t in p["t_grid"]:
        rep = bounds.verify_main_theorem(
            v, phi, p["alpha"], t,
            n_paths=p["n_paths"], seed=seed, workers=workers,
        )
        reports.append(rep)
        rows.append(
            {
                "potential": v.name,
                "alpha": p["alpha"],
                "t": t,
                "cap": rep.theoretical_value,
                "worst_quotient": rep.empirical_value,
                "stderr": rep.stderr,
                "verdict": rep.verdict,
            }
        )
    # degenerate reduction: V = 0 must collapse to the Hoelder/Lipschitz caps
    rep0 = bounds.verify_main_theorem(
        pot.ZeroPotential(spaces.euclidean(1)), functions.Sign(), p["alpha"],
        p["t_grid"][0],
    )
    rows.append(
        {
            "potential": "zero",
            "alpha": p["alpha"],
            "t": p["t_grid"][0],
            "cap": rep0.theoretical_value,
            "worst_quotient": rep0.empirical_value,
            "stderr": 0.0,
            "verdict": HOLDS if rep0.verdict == HOLDS else "violated",
        }
    )
    return {"theorem": rows}, reports


def suite_molecule(p, seed, workers):
    if "file" in p and p["file"]:
        mol = pot.load_molecule(p["file"])
    else:
        mol = pot.load_molecule({"m": p["m"], "nuclei": p["nuclei"]})
    t = p["t"]
    rows = []
    reports = []
    for alpha in p["alpha_grid"]:
        cert = pot.kato_integral(mol, alpha, t, method="quadrature")
        per_term = mol.per_term_kato_closed_form(alpha, t)
        rows.append(
            {
                "stage": "kato_certificate",
                "alpha": alpha,
                "value": cert.bound,
                "reference": per_term,
                "verdict": HOLDS
                if (not math.isfinite(per_term)) or cert.bound <= per_term + 1e-9
                else "violated",
            }
        )
    # classification: in K^alpha iff alpha < 1
    for alpha, expect in ((max(p["alpha_grid"]), "kato"), (1.0, "divergent")):
        res = pot.classify_kato(mol, p["classify_t_grid"], alpha)
        rows.append(
            {
                "stage": "classification",
                "alpha": alpha,
                "value": res.fitted_exponent,
                "reference": float("nan"),
                "verdict": HOLDS if res.status == expect else "violated",
            }
        )
    # corollary B from base-space terms
    vj = [
        pot.CoulombPotential(spaces.euclidean(3), (0, 0, 0), float(np.sum(mol.Z)))
        for _ in range(mol.m)
    ]
    n_pairs = mol.m * (mol.m - 1) // 2
    vij = [
        pot.CoulombPotential(
            spaces.euclidean(3), (0, 0, 0), 1.0 / math.sqrt(2.0), attractive=False
        )
        for _ in range(n_pairs)
    ]
    alpha0 = p["alpha_grid"][len(p["alpha_grid"]) // 2]
    b = bounds.corollary_B_constant(vj, vij, 0.0, alpha0, t)
    rows.append(
        {
            "stage": "corollary_B",
            "alpha": alpha0,
            "value": b,
            "reference": float("nan"),
            "verdict": HOLDS if math.isfinite(b) else "violated",
        }
    )
    # blow-up of the C-constant as alpha -> 1
    alphas = np.linspace(0.8, 0.98, 10)
    vals = [mol.per_term_kato_closed_form(a, t) * 2.0 ** (-a / 2) for a in alphas]
    slope = bounds.fit_blowup_exponent(alphas, vals)
    rows.append(
        {
            "stage": "blowup_slope",
            "alpha": float("nan"),
            "value": slope,
            "reference": -1.0,
            "verdict": HOLDS if abs(slope + 1.0) <= 0.1 else "violated",
        }
    )
    # calibrated L^r -> C^{0,alpha} shape, one-sided extrapolation check
    if p["calibrate"]:
        phi = functions.BallIndicator(np.zeros(3 * mol.m), 1.0)
        pairs = bounds.pair_grid_euclidean(
            mol.space, anchors=[np.zeros(3 * mol.m)], scale=1.0, k_max=3
        )
        alpha_c = 0.5
        meas = []
        for i, tt in enumerate(p["calibration_t"]):
            q, se = bounds.measured_holder_quotient_mc(
                mol, phi, alpha_c, tt, pairs, p["n_paths"], (seed, 90 + i),
                workers=workers,
            )
            meas.append((tt, q))
        c_mz, c_rz = bounds.calibrate_molecular_constants(
            meas, alpha_c, mol.m, math.inf
        )
        t_check = 2.0 * max(mm[0] for mm in meas)
        q_check, se_check = bounds.measured_holder_quotient_mc(
            mol, phi, alpha_c, t_check, pairs, p["n_paths"], (seed, 99),
            workers=workers,
        )
        predicted = bounds.molecular_bound(
            mol.m, mol.l, mol.R, mol.Z, math.inf, alpha_c, t_check, c_mz, c_rz
        )
        rows.append(
            {
                "stage": "calibrated_shape_check",
                "alpha": alpha_c,
                "value": q_check,
                "reference": predicted,
                "verdict": one_sided_verdict(q_check, predicted, se_check),
            }
        )
    return {"molecule": rows}, reports


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
            "reference_values": ({}, dict),
            "oracle_tolerance": (0.02, float),
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
            "min_ratio": (3.5, float),
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
            "calibrate": (True, bool),
            "calibration_t": ([0.5, 1.0], list),
            "n_paths": (3000, int),
        },
    ),
}


# ---------------------------------------------------------------------------
# config handling and output
# ---------------------------------------------------------------------------


_TYPE_NAMES = {list: "a list", dict: "an object", int: "a number",
               float: "a number", bool: "true or false", str: "a string",
               type(None): "null"}


def _accepts(expected, value):
    """Whether a JSON value fits a schema type; true/false is never a number."""
    if isinstance(expected, tuple):
        return any(_accepts(e, value) for e in expected)
    if expected in (int, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, expected)


def _validate(suite, supplied):
    _fn, schema = SUITES[suite]
    params = {}
    for key, value in supplied.items():
        if key not in schema:
            raise ConfigError(f"unknown key {suite}.{key}")
        default, expected = schema[key]
        if not _accepts(expected, value):
            names = expected if isinstance(expected, tuple) else (expected,)
            raise ConfigError(
                f"{suite}.{key} must be "
                + " or ".join(_TYPE_NAMES[e] for e in names)
            )
        if value == []:
            raise ConfigError(f"{suite}.{key} must not be empty")
        # a list whose default holds numbers must hold numbers
        if (expected is list and all(_accepts(float, v) for v in default)
                and not all(_accepts(float, v) for v in value)):
            raise ConfigError(f"{suite}.{key} must be a list of numbers")
        if key == "classify_t_grid" and len(value) < 2:
            raise ConfigError(f"{suite}.{key} needs at least two times")
        params[key] = value
    for key, (default, _expected) in schema.items():
        params.setdefault(key, default)
    return params


def write_suite(out_dir, suite, seed, config, tables, reports):
    """Write one computed suite's tables, records and meta line, print its
    verdict count, and return its exit code.

    A table's columns are the keys of its first row; a stray key in a later
    row raises.  Every record passes through ``jsonable`` once and is written
    as strict JSON."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for name, rows in sorted(tables.items()):
        with open(out / f"{name}_results.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({k: _fmt(v) for k, v in row.items()} for row in rows)
        records += [{"record": "row", "suite": suite, "table": name, **row}
                    for row in rows]
    for rep in reports:
        rec = rep.to_dict() if hasattr(rep, "to_dict") else rep
        records.append({**rec, "suite": suite})
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
    """Compute one suite: ({table: rows}, reports). Writes nothing."""
    fn, _schema = SUITES[suite]
    return fn(params, seed, workers)


def cmd_report(directory):
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
        worst_name, worst_margin = None, math.inf
        for r in recs:
            if r.get("record") == "bound_report":
                try:
                    margin = float(r["theoretical_value"]) - float(
                        r["empirical_value"]
                    )
                except (TypeError, ValueError):
                    continue
                if margin < worst_margin:
                    worst_margin, worst_name = margin, r["bound_name"]
        status = "PASS" if n_bad == 0 else "FAIL"
        worst_txt = (
            f" worst-margin {worst_name}: {worst_margin:.6g}"
            if worst_name is not None
            else " (no bound reports)"
        )
        print(f"{suite}: {status} ({n_verdicts} verdicts, {n_bad} bad){worst_txt}")
        if n_bad:
            for r in recs:
                if r.get("verdict") not in (None, HOLDS):
                    name = r.get("bound_name") or r.get("table") or suite
                    print(f"  violated: {name}")
                    break
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
            return json.load(fh)
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
            cfg[key] = json.loads(raw)
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
        return max(
            write_suite(args.out, suite, args.seed, params, *result)
            for suite, params, result in results
        )
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except KatoflowError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
