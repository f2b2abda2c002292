"""Workloads of the dyadlab benchmark.

A workload is a fixture, built once during set-up, and a pass that runs the
fixture's cases through dyadlab's public functions and checks every output.
Why each workload exists, and which layer it stresses or bypasses:

- ratio_sweep: the paper's experiment, ||[b,H]||_{S_p(mu->lam)} / ||b||_{B_p(nu)}
  over symbols, Bloom pairs, j_max and p; stresses besov and weights (the mixed
  pair's quadrature nu), with spectrum a small share.
- spectrum_large: dense [b,H] at N = 2048 for compact and full-support symbols;
  stresses spectrum and operators, so an exact low-rank reduction and its
  full-SVD fallback both show.
- diagnostics: weight and norm diagnostics at N = 4096 with no dense spectrum;
  stresses grids (Fraction geometry), symbols and besov, and bypasses spectrum
  and quadrature weights, so a change to those should show no change here.

An operation is one checked call (or short chain of calls) into dyadlab.  It
fails when it raises or a check on its output does not hold; the checks are
exact identities or inequalities, so they hold for any correct change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import spectrum
from dyadlab import besov, grids, operators, symbols, weights

# The traced layers, named after dyadlab's modules and the spectrum adapter.
LAYERS = {"grids": grids, "weights": weights, "symbols": symbols,
          "besov": besov, "operators": operators, "spectrum": spectrum}

PS = (1.0, 2.0, 4.0)
TINY_J_MAX = 4  # smallest j_max at which random_haar_symbol finds 8 terms

# ratio_sweep cases: (j_max, symbol, pair, p values of the ratio).  The full
# symbol x pair grid at every j_max takes about 35 s a pass; this Latin-square
# cut keeps every symbol with both closed-form pairs, every rung of the ladder
# and every p, and runs the quadrature (mixed) pair once, at the smallest N
# and p = 2.
RATIO_CASES = (
    (5, "quartic_bump", "flat", PS),
    (5, "ramp_bump", "power", PS),
    (5, "random_haar", "mixed", (2.0,)),
    (6, "random_haar", "flat", PS),
    (6, "quartic_bump", "power", PS),
    (7, "ramp_bump", "flat", PS),
    (7, "random_haar", "power", PS),
)
# spectrum_large: compact (quartic_bump on 1/8 of the window, random_haar) and
# full-support (linear) symbols; the ratio only at p = 2.
SPECTRUM_CASES = tuple(
    (8, name, "power", (2.0,)) for name in ("quartic_bump", "random_haar", "linear")
)
DIAG_J_MAX = 9
EXPANSION_J_MAX = 7

SIGMA_RTOL = 1e-10
FORMS_RTOL = 1e-12
COEFF_RTOL = 1e-10
ANTISYM_RTOL = 1e-12
CLOSURE_RTOL = 1e-12
A2_FLOOR = 1.0 - 1e-12


class CheckFailed(Exception):
    """An output of dyadlab broke an identity the benchmark checks."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Ledger:
    """Counts operations and those that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark keeps going and reports it
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None


def make_pairs() -> dict[str, weights.BloomWeight]:
    return {
        "flat": weights.unweighted_pair(),
        # one centre on both sides keeps nu = sqrt(mu/lam) a closed-form power
        "power": weights.BloomWeight(
            weights.PowerWeight(0.5, 1.0 / 3.0), weights.PowerWeight(-0.3, 1.0 / 3.0)
        ),
        # different centres send nu to the quadrature fallback
        "mixed": weights.BloomWeight(
            weights.PowerWeight(0.5, 0.25), weights.PowerWeight(-0.3)
        ),
    }


def make_symbol(name: str, window, seed: int):
    if name == "random_haar":
        b = symbols.random_haar_symbol(window, seed=seed)
    else:
        b = getattr(symbols, f"{name}_symbol")(window)
    b.cell_values()  # analytic symbols cache their cell averages on first use
    return b


@dataclass
class Fixture:
    seed: int
    windows: dict = field(default_factory=dict)  # j_max -> window
    pairs: dict = field(default_factory=dict)
    symbols: dict = field(default_factory=dict)  # (j_max, name) -> symbol
    cases: tuple = ()
    std: object = None
    shifted: object = None
    pathological: object = None

    def sizes(self) -> dict[int, int]:
        return {j: w.n_cells for j, w in sorted(self.windows.items())}


def build(workload: str, seed: int, tiny: bool = False) -> Fixture:
    """Windows, grids, weights and symbols of a workload (the set-up work)."""
    def j(j_max: int) -> int:
        return TINY_J_MAX if tiny else j_max

    fx = Fixture(seed, pairs=make_pairs())
    fx.std, fx.shifted = grids.standard_grid(), grids.third_shift_grid()
    if workload == "diagnostics":
        fx.cases = ((j(DIAG_J_MAX), j(EXPANSION_J_MAX)),)
        wanted = {(jm, "random_haar") for jm in fx.cases[0]}
        fx.pathological = weights.pathological_weight(2, 3, 9)
    else:
        cases = {"ratio_sweep": RATIO_CASES, "spectrum_large": SPECTRUM_CASES}[workload]
        fx.cases = tuple((j(jm), name, pair, ps) for jm, name, pair, ps in cases)
        wanted = {(jm, name) for jm, name, _pair, _ps in fx.cases}
    for jm, name in sorted(wanted):
        if jm not in fx.windows:
            fx.windows[jm] = grids.default_window(jm)
        fx.symbols[(jm, name)] = make_symbol(name, fx.windows[jm], seed)
    return fx


def warm_up() -> None:
    """One LAPACK call, so its one-time start-up cost lands in set-up."""
    rng = np.random.default_rng(0)
    spectrum.singular_values(rng.standard_normal((256, 256)))


# ---------------------------------------------------------------- checks


def check_hilbert(h) -> None:
    mat = h.mat
    scale = float(np.max(np.abs(mat)))
    require(bool(np.all(np.diag(mat) == 0.0)), "H has a nonzero diagonal entry")
    asym = float(np.max(np.abs(mat + mat.T)))
    require(asym <= ANTISYM_RTOL * scale, f"H is not antisymmetric: |H+H^T| = {asym:.3e}")


def check_spectrum(sigma: np.ndarray, mat: np.ndarray, b) -> None:
    energy = float(np.sum(sigma**2))
    fro2 = float(np.linalg.norm(mat) ** 2)
    require(
        abs(energy - fro2) <= SIGMA_RTOL * fro2,
        f"sum sigma^2 = {energy!r} differs from ||T||_F^2 = {fro2!r}",
    )
    rank = spectrum.numerical_rank(sigma)
    support = int(np.count_nonzero(b.cell_values()))
    require(rank <= 2 * support, f"rank {rank} exceeds 2|supp b| = {2 * support}")


def require_positive(value: float, what: str) -> None:
    require(math.isfinite(value) and value > 0.0, f"{what} = {value!r} is not finite and positive")


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------- passes


def hilbert_op(window):
    h = operators.hilbert_matrix(window)
    check_hilbert(h)
    return h


def spectrum_op(b, pair, h) -> dict[float, float]:
    """[b, H] conjugated by the pair, its full spectrum, and S_p at every p."""
    comm = operators.multiplication_commutator(b, h)
    conj = operators.weight_conjugate(comm, pair.lam, pair.mu)
    sigma = spectrum.singular_values(conj.mat)
    check_spectrum(sigma, conj.mat, b)
    s_p = {p: spectrum.schatten_norm(sigma, p) for p in PS}
    for p, v in s_p.items():
        require_positive(v, f"S_{p:g}")
    return s_p


def ratio_op(fx: Fixture, jm: int, b, pair, s_p: dict, p: float) -> dict:
    b_p = besov.intersection_norm(b, pair, fx.std, fx.shifted, fx.windows[jm], p).value
    require_positive(b_p, f"B_{p:g}")
    ratio = s_p[p] / b_p
    require_positive(ratio, "ratio")
    return {"besov": b_p, "ratio": ratio}


def spectral_pass(fx: Fixture, ledger: Ledger) -> list[dict]:
    """ratio_sweep and spectrum_large: one H per j_max, one spectrum per case
    shared across p, and the Schatten/Besov ratio at each of the case's p."""
    rows = []
    hs = {}
    for jm, name, pair_name, ratio_ps in fx.cases:
        window = fx.windows[jm]
        if jm not in hs:
            hs[jm] = ledger.run(f"hilbert N={window.n_cells}", hilbert_op, window)
        b = fx.symbols[(jm, name)]
        pair = fx.pairs[pair_name]
        label = f"N={window.n_cells} {name}/{pair_name}"
        s_p = ledger.run(f"spectrum {label}", spectrum_op, b, pair, hs[jm])
        ratios = {
            p: ledger.run(f"ratio {label} p={p:g}", ratio_op, fx, jm, b, pair, s_p, p)
            for p in ratio_ps
        }
        rows.append({"N": window.n_cells, "symbol": name, "pair": pair_name,
                     "schatten": s_p, "ratios": ratios})
    return rows


def a2_op(w, window, seed: int) -> dict:
    report = weights.a2_constant(w, window, seed=seed)
    require(math.isfinite(report.constant), f"A2 of {w.label} is not finite")
    require(report.constant >= A2_FLOOR, f"A2 of {w.label} = {report.constant!r} < 1")
    return {"a2": report.constant}


def reverse_holder_op(w, window) -> dict:
    report = weights.reverse_holder_exponent(w, window)
    for r, worst in report.per_exponent.items():
        # Jensen: [avg w^(r/2)]^(2/r) >= avg w; a rung outside the weight's
        # range reports inf
        require(worst >= A2_FLOOR, f"reverse-Hoelder ratio {worst!r} < 1 at r={r}")
    return {"rh_exponent": report.exponent, "rh_constant": report.constant}


def form_ratios_op(pair, grid, window) -> dict:
    rows, worst = besov.interval_form_ratios(pair, grid, window)
    require(math.isfinite(worst) and worst >= 1.0, f"worst form ratio {worst!r}")
    for row in rows:
        if not all(math.isfinite(q) and q > 0.0 for q in (row.q1, row.q2, row.q3)):
            raise CheckFailed(f"bracket on {row.interval.label()} is not finite and positive")
    return {"worst_form_ratio": worst, "intervals": len(rows)}


def bmo_op(b, pair, grid, window) -> dict:
    report = besov.weighted_bmo_dyadic(b, pair, grid, window)
    require_positive(report.sup_average, "BMO sup-average form")
    require_positive(report.square_form, "BMO square form")
    return {"bmo_sup": report.sup_average, "bmo_square": report.square_form}


def vmo_op(b, pair, grid, window) -> dict:
    report = besov.vmo_tail_report(b, pair, grid, window)
    require_positive(report.total, "VMO total")
    for row in report.rows:
        require(
            all(math.isfinite(t) and t >= 0.0 for t in (row.small_scale, row.large_scale, row.far_field)),
            f"VMO tail row at radius {row.radius} is negative or not finite",
        )
    return {"vmo_total": report.total}


def forms_op(b, pair, grid, window, p: float) -> dict:
    """Forms 1-3 on the flat pair agree, and for a Haar symbol form 1 is the
    l^p norm of |c_I| / sqrt|I| over its own coefficient map."""
    values = [besov.dyadic_besov_norm(b, pair, p, grid, window, form=f).value for f in (1, 2, 3)]
    for f, v in zip((2, 3), values[1:]):
        require(close(values[0], v, FORMS_RTOL), f"form {f} = {v!r} differs from form 1 = {values[0]!r}")
    exact = sum((abs(c) / math.sqrt(2.0 ** -iv.j)) ** p for iv, c in b.coefficients.items()) ** (1.0 / p)
    require(close(values[0], exact, COEFF_RTOL), f"form 1 = {values[0]!r}, coefficient sum = {exact!r}")
    return {"besov_forms": values}


def _checkerboard(interval) -> int:
    return 1 if (interval.j + interval.k) % 2 == 0 else -1


def expansion_op(b, grid, window, kind: str) -> dict:
    if kind == "shift":
        res = operators.expansion_residual(b, grid, window, kind="shift", remainder="derived")
    else:
        res = operators.expansion_residual(b, grid, window, kind="multiplier", signs=_checkerboard)
    require(math.isfinite(res.lhs_norm) and res.lhs_norm > 0.0, "expansion lhs vanishes")
    # the derived remainder and the multiplier expansion close exactly for step symbols
    require(
        res.operator_norm <= CLOSURE_RTOL * max(1.0, res.lhs_norm),
        f"{kind} expansion residual {res.operator_norm!r} does not close",
    )
    return {"residual": res.operator_norm, "lhs": res.lhs_norm}


def diagnostics(fx: Fixture, ledger: Ledger) -> list[dict]:
    (jd, je), = fx.cases
    window, exp_window = fx.windows[jd], fx.windows[je]
    b = fx.symbols[(jd, "random_haar")]
    b_exp = fx.symbols[(je, "random_haar")]
    power, flat = fx.pairs["power"], fx.pairs["flat"]
    n, n_exp = window.n_cells, exp_window.n_cells
    steps = [
        ("a2 power", n, a2_op, power.mu, window, fx.seed),
        ("a2 pathological", n, a2_op, fx.pathological, window, fx.seed),
        ("reverse-Hoelder power", n, reverse_holder_op, power.mu, window),
        ("reverse-Hoelder pathological", n, reverse_holder_op, fx.pathological, window),
        ("interval form ratios", n, form_ratios_op, power, fx.std, window),
        ("weighted BMO", n, bmo_op, b, power, fx.std, window),
        ("VMO tails", n, vmo_op, b, power, fx.std, window),
        ("Besov forms 1-3 flat", n, forms_op, b, flat, fx.std, window, 2.0),
        ("expansion shift", n_exp, expansion_op, b_exp, fx.std, exp_window, "shift"),
        ("expansion multiplier", n_exp, expansion_op, b_exp, fx.std, exp_window, "multiplier"),
    ]
    rows = []
    for what, size, fn, *args in steps:
        out = ledger.run(f"{what} N={size}", fn, *args)
        rows.append({"N": size, "call": what, **(out or {})})
    return rows


PASSES = {
    "ratio_sweep": spectral_pass,
    "spectrum_large": spectral_pass,
    "diagnostics": diagnostics,
}
