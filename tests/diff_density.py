"""Compare the log densities of this tree with those of another git revision, call for call.

Run it from the repository root with::

    OPENBLAS_NUM_THREADS=1 python tests/diff_density.py REV

It unpacks REV with ``git archive`` into a temporary directory, then runs one process per side,
each with its own ``src/`` first on ``sys.path`` and this tree's ``tests/`` for the models.  Each
process builds the same posteriors, once as ``build_posterior`` builds them and once with
``posterior._thin_qr`` returning None (the rows only), and calls ``log_density`` and
``log_density_and_grad`` at the same points.  It dumps, per call, the value and gradient bytes,
or the exception's class, message and row, and the warnings the call raised.  The models are
``_random_model_and_data()``'s (affine in X or not, and affine only), random formulas with
quotients, and the division singularities of ``tests/test_posterior.py``; the points are random
at three scales, and the edge points ``EDGES``, per coordinate and all at once.

It prints the number of calls, then the mismatches per kind of call: *factorised*, a posterior
the factorisation serves as ``build_posterior`` builds it (a call it cannot vouch for falls
through to its rows), and *rows*, any other.  Per kind, it counts the mismatches of each field
(value, gradient, exception class, message, row) and gives the ulp distances of the value and
gradient mismatches: their distribution by powers of two and the largest.  It exits 1 on any
mismatch.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import io
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
import warnings
from collections import Counter, defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

# the logistic's tails, exp's last finite and first overflowing arguments, where cosh-like sums
# round, signed zeros, a tiny and a subnormal coordinate
EDGES = [750.0, -750.0, 709.0, 710.0, -710.0, 1000.0, 36.0, -36.0, 0.0, -0.0, 1e-300, 5e-324]


def _models():
    """The (model, data) pairs, the same on both sides: drawn from fixed seeds by this tree's tests."""
    import numpy as np
    from test_formula import _random_ast
    from test_posterior import TestCompiledMatchesReference, _random_model_and_data

    from plainbayes.data_io import Dataset
    from plainbayes.distributions import Exponential, HalfNormal, Normal
    from plainbayes.errors import PlainbayesError
    from plainbayes.formula import to_source
    from plainbayes.spec_schema import LikelihoodSpec, ModelSpec, validate_model

    rng = np.random.default_rng(20_260)
    pairs = [_random_model_and_data(rng) for _ in range(150)]
    pairs += [_random_model_and_data(rng, affine_only=True, n=int(rng.integers(3, 40))) for _ in range(100)]
    data = Dataset({"X": np.array([1.5, 0.0, -2.0, 4.0, 0.5]), "y": np.array([0.5, -1.0, 0.0, 2.0, 1.0])})
    for _ in range(150):
        source = to_source(_random_ast(rng, ["a", "b", "X"], depth=4))
        priors = {"a": Normal(mu=0, sigma=2), "b": Exponential(lam=1), "s": HalfNormal(sigma=3)}
        pairs.append((ModelSpec(priors=priors, likelihood=LikelihoodSpec(formula_source=source, noise_param="s")), data))
    models = []
    for spec, data in pairs:
        try:
            models.append((validate_model(spec, data.column_names()), data))
        except PlainbayesError:  # a formula with no parameter in it, say: rejected alike on both sides
            pass
    models += [TestCompiledMatchesReference._singular_model(source) for source in TestCompiledMatchesReference.SOURCES]
    return models, rng


def _points(rng, dim):
    import numpy as np

    points = [rng.normal(scale=scale, size=dim) for scale in (0.3, 2.0, 30.0)]
    for edge in EDGES:
        for i in range(dim):
            z = rng.normal(scale=0.5, size=dim)
            z[i] = edge
            points.append(z)
        points.append(np.full(dim, edge))
    return points


def _call(fn, z):
    """``(outcome, warnings)``: the value and gradient bytes, or the exception's class, message and row."""
    import numpy as np

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(z)
        except Exception as exc:  # noqa: BLE001 - any exception is an outcome to compare
            outcome = (type(exc).__name__, str(exc), getattr(exc, "row", None))
        else:
            value, grad = result if isinstance(result, tuple) else (result, None)
            outcome = ("ok", np.float64(value).tobytes(), None if grad is None else np.asarray(grad).tobytes())
    return outcome, tuple(sorted(f"{w.category.__name__}: {w.message}" for w in caught))


def dump(path: str) -> None:
    """Write this side's outcomes, in call order, to ``path``."""
    from plainbayes import posterior

    models, rng = _models()
    records = []
    thin_qr = posterior._thin_qr
    for index, (vm, data) in enumerate(models):
        factored = []
        posterior._thin_qr = lambda *args: factored.append(thin_qr(*args)) or factored[-1]
        try:
            built = [posterior.build_posterior(vm, data)]
            posterior._thin_qr = lambda *args: None
            built.append(posterior.build_posterior(vm, data))
        finally:
            posterior._thin_qr = thin_qr
        kinds = ("factorised" if factored and factored[-1] is not None else "rows", "rows")
        for z in _points(rng, built[0].dimension):
            for path_name, pf in zip(kinds, built):
                for call in ("log_density", "log_density_and_grad"):
                    outcome, caught = _call(getattr(pf, call), z)
                    records.append(((index, vm.spec.likelihood.formula_source, path_name, call, z.tolist()), outcome, caught))
    with open(path, "wb") as fh:
        pickle.dump(records, fh)


def _run_side(src: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TESTS)]), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--dump", str(out)], env=env, check=True)


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--dump":
        dump(argv[1])
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", argv[0]], cwd=ROOT, capture_output=True, check=True)
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(Path(tmp) / "base")
        sides = []
        for name, src in (("base", Path(tmp) / "base" / "src"), ("this", ROOT / "src")):
            out = Path(tmp) / f"{name}.pickle"
            _run_side(src, out)
            with open(out, "rb") as fh:
                sides.append(pickle.load(fh))
    base, this = sides
    if [key for key, *_ in base] != [key for key, *_ in this]:
        print("the two sides made different calls")
        return 1
    calls = Counter(key[3] for key, *_ in this)
    raised = Counter(outcome[0] for _, outcome, _ in this if outcome[0] != "ok")
    mismatches = [(key, b, t) for (key, b, _), (_, t, _) in zip(base, this) if b != t]
    warned = [(key, b, t) for (key, _, b), (_, _, t) in zip(base, this) if b != t]
    print(f"{len(this)} calls ({', '.join(f'{n} {call}' for call, n in sorted(calls.items()))}) "
          f"on {len({key[0] for key, *_ in this})} models; raised: {dict(raised) or 'none'}")
    print(f"warnings: base {sum(len(w) for *_, w in base)}, this {sum(len(w) for *_, w in this)}; "
          f"calls that warned otherwise: {len(warned)}")
    kinds = Counter(key[2] for key, *_ in this)
    for kind in ("factorised", "rows"):
        found = [(key, b, t) for key, b, t in mismatches if key[2] == kind]
        fields, ulps = _fields(found)
        print(f"{kind}: {kinds[kind]} calls, {len(found)} mismatches; by field: "
              + ", ".join(f"{name} {fields[name]}" for name in ("value", "gradient", "exception class", "message", "row")))
        if ulps:
            buckets = Counter(max(ulp - 1, 0).bit_length() for ulp in ulps)  # 1, 2, 3-4, 5-8, ... ulps
            print("  ulp distances of value and gradient mismatches: "
                  + ", ".join(f"<= {2 ** b}: {buckets[b]}" for b in sorted(buckets)) + f"; largest {max(ulps)}")
    for key, b, t in mismatches[:10]:
        print(f"  {key}\n    base {b}\n    this {t}")
    return 1 if mismatches else 0


def _fields(found):
    """Per field, the number of mismatched calls it differs in; and the ulp distance of each
    value and gradient component that differs where both sides returned."""
    import numpy as np

    fields, ulps = Counter(), []
    for _, b, t in found:
        if b[0] != t[0]:
            fields["exception class"] += 1
        elif b[0] == "ok":
            for name, bb, tb in (("value", b[1], t[1]), ("gradient", b[2], t[2])):
                if bb != tb:
                    fields[name] += 1
                    ulps += [_ulp(x, y) for x, y in zip(np.frombuffer(bb), np.frombuffer(tb)) if x.tobytes() != y.tobytes()]
        else:
            fields["message"] += b[1] != t[1]
            fields["row"] += b[2] != t[2]
    return fields, ulps


def _ulp(x, y) -> int:
    """The number of floats from x to y (counting -0.0 and 0.0 as one step); 2**64 if either is NaN."""
    import numpy as np

    if np.isnan(x) or np.isnan(y):
        return 2**64
    i, j = (int(v.view(np.int64)) for v in (x, y))
    i, j = (v if v >= 0 else -(v & 0x7FFF_FFFF_FFFF_FFFF) - 1 for v in (i, j))
    return abs(i - j)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
