"""Self-test of the benchmark's checks: each must reject a wrong trace.

    python3 perfbench/selftest.py

For each model the benchmark checks, draws made independently from the
grid posterior's moments must pass every check, and the same draws moved
by a few posterior sds (or widened, for the sd check) must fail the check
that guards against that fault.  Also checks the ESS estimator on AR(1)
chains, whose ESS is known.  Runs in a few seconds and needs no plainbayes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import oracle
from run import ELICITED_PRIORS, EXP2_PRIORS, LINEAR, MANUAL_PRIORS, RECIP, RECIP_PRIORS, RECIP_TRUTH, model_json

SHIFT_SDS = 3.0
CHAINS, DRAWS = 4, 1000


def iid_draws(ref: dict, names: list[str], rng) -> np.ndarray:
    """Independent normal draws with the grid's means and sds."""
    draws = np.empty((CHAINS, DRAWS, len(names)))
    for i, nm in enumerate(names):
        draws[:, :, i] = ref[nm].mean + ref[nm].sd * rng.standard_normal((CHAINS, DRAWS))
    return draws


def shifted(draws: np.ndarray, ref: dict, names: list[str], param: str, chains=slice(None)) -> np.ndarray:
    out = draws.copy()
    out[chains, :, names.index(param)] += SHIFT_SDS * ref[param].sd
    return out


def widened(draws: np.ndarray, names: list[str], param: str, factor: float = 1.5) -> np.ndarray:
    out = draws.copy()
    col = out[:, :, names.index(param)]
    out[:, :, names.index(param)] = col.mean() + factor * (col - col.mean())
    return out


def write_histograms(d: Path, names: list[str], series: dict[str, np.ndarray], bins: int = 50) -> None:
    """Histogram CSVs in the program's layout, binned over the combined range."""
    for i, nm in enumerate(names):
        pooled = {label: draws[:, :, i].ravel() for label, draws in series.items()}
        lo = min(v.min() for v in pooled.values())
        hi = max(v.max() for v in pooled.values())
        columns = {label: np.histogram(v, bins=bins, range=(lo, hi)) for label, v in pooled.items()}
        edges = next(iter(columns.values()))[1]
        lines = [",".join(["bin_left", "bin_right"] + [f"count_{label}" for label in columns])]
        for b in range(bins):
            lines.append(",".join([repr(float(edges[b])), repr(float(edges[b + 1]))] + [str(int(c[0][b])) for c in columns.values()]))
        (d / f"hist_{nm}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


class Report:
    def __init__(self):
        self.bad = 0

    def expect(self, what: str, failures: list[str], should_fail: bool, needle: str = "") -> None:
        hit = any(needle in f for f in failures) if should_fail else not failures
        self.bad += not hit
        verdict = "ok  " if hit else "FAIL"
        detail = failures[0] if failures else "no failure reported"
        print(f"{verdict} {what}: {detail}")


def linear_data(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    x = rng.uniform(0.0, 100.0, n)
    return x, 2.5 + 1.8 * x + 15.0 * rng.standard_normal(n)


def main() -> int:
    rng = np.random.default_rng(20250811)
    rep = Report()

    # ESS of AR(1) chains: ESS / N = (1 - phi) / (1 + phi)
    phi, n = 0.6, 20_000
    ar = np.zeros((4, n))
    eps = rng.standard_normal((4, n))
    for t in range(1, n):
        ar[:, t] = phi * ar[:, t - 1] + eps[:, t]
    ratio = oracle.ess_bulk(ar) / ar.size / ((1 - phi) / (1 + phi))
    rep.expect(f"bulk ESS of AR(1) within 10% of theory (ratio {ratio:.3f})", [] if abs(ratio - 1) < 0.1 else ["off"], False)

    cases = [
        ("exp2", oracle.LinearModel("alpha", "beta", "sigma", EXP2_PRIORS), linear_data(rng, 100)),
        ("exp1-elicited", oracle.LinearModel("alpha", "beta", "sigma", ELICITED_PRIORS), linear_data(rng, 100)),
    ]
    x = rng.uniform(0.0, 100.0, 20_000)
    y = RECIP_TRUTH["alpha"] + x / RECIP_TRUTH["tau"] + RECIP_TRUTH["sigma"] * rng.standard_normal(x.size)
    cases.append(("recip", oracle.LinearModel("alpha", "tau", "sigma", RECIP_PRIORS, reciprocal=True), (x, y)))

    for label, model, (x, y) in cases:
        ref = oracle.grid_posterior(model, oracle.SuffStats.of(x, y))
        names = [model.intercept, model.slope, model.noise]
        good = iid_draws(ref, names, rng)
        rep.expect(f"{label}: draws from the grid posterior pass", oracle.check_fit(label, names, good, ref), False)
        for nm in names:
            bad = shifted(good, ref, names, nm)
            rep.expect(f"{label}: {nm} shifted {SHIFT_SDS} sds", oracle.check_fit(label, names, bad, ref), True, f"mean of {nm}")
            bad = widened(good, names, nm)
            rep.expect(f"{label}: {nm} widened 1.5x", oracle.check_fit(label, names, bad, ref), True, f"sd of {nm}")
        bad = shifted(good, ref, names, model.slope, chains=slice(0, 1))
        rep.expect(f"{label}: one chain of {model.slope} shifted", oracle.check_fit(label, names, bad, ref), True, "R-hat")

        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            write_histograms(d, names, {"fit": good})
            rep.expect(f"{label}: histograms of the trace", oracle.check_histograms(d, {"fit": (names, good)}), False)
            bad = shifted(good, ref, names, model.slope)
            rep.expect(f"{label}: histograms against a shifted trace", oracle.check_histograms(d, {"fit": (names, bad)}), True, "counts")
            write_histograms(d, names, {"fit": good[:, 1:]})
            rep.expect(f"{label}: histogram missing a draw per chain", oracle.check_histograms(d, {"fit": (names, good)}), True, "counts")
            summary = {nm: {"mean": float(good[:, :, i].mean())} for i, nm in enumerate(names)}
            (d / "summary.json").write_text(json.dumps({"parameters": summary}), encoding="utf-8")
            rep.expect(f"{label}: summary means of the trace", oracle.check_summary_means(d / "summary.json", names, good), False)
            bad = shifted(good, ref, names, model.intercept)
            rep.expect(f"{label}: summary means against a shifted trace", oracle.check_summary_means(d / "summary.json", names, bad), True, "mean of")

    # Experiment I: prior insensitivity between two fits of the same data
    x, y = linear_data(rng, 100)
    ss = oracle.SuffStats.of(x, y)
    fits = []
    for label, priors in (("elicited", ELICITED_PRIORS), ("baseline", MANUAL_PRIORS)):
        ref = oracle.grid_posterior(oracle.LinearModel("alpha", "beta", "sigma", priors), ss)
        fits.append((label, ["alpha", "beta", "sigma"], iid_draws(ref, ["alpha", "beta", "sigma"], rng), ref))
    rep.expect("exp1: elicited and baseline beta agree", oracle.check_same_mean("beta", fits), False)
    label, names, draws, ref = fits[1]
    fits[1] = (label, names, shifted(draws, ref, names, "beta"), ref)
    rep.expect("exp1: baseline beta shifted", oracle.check_same_mean("beta", fits), True, "disagree")

    # Blueprint equality
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(model_json(EXP2_PRIORS, LINEAR), encoding="utf-8")
        rep.expect("exp2: the paper's blueprint", oracle.check_blueprint(path, EXP2_PRIORS, LINEAR), False)
        wrong = dict(EXP2_PRIORS, beta=("Exponential", {"lam": 0.4}))
        path.write_text(model_json(wrong, LINEAR), encoding="utf-8")
        rep.expect("exp2: a blueprint with another beta prior", oracle.check_blueprint(path, EXP2_PRIORS, LINEAR), True, "priors")
        path.write_text(model_json(EXP2_PRIORS, RECIP), encoding="utf-8")
        rep.expect("exp2: a blueprint with another mean", oracle.check_blueprint(path, EXP2_PRIORS, LINEAR), True, "likelihood mean")

    print(f"{rep.bad} self-test expectation(s) unmet")
    return 1 if rep.bad else 0


if __name__ == "__main__":
    sys.exit(main())
