"""Named test functions loadable from a structured JSON file.

Each corpus entry gives a closed form from the registry below plus a
grid specification, so every function can be evaluated off-grid exactly
(needed when symbols are applied at matrix eigenvalues).

File schema: a JSON list of objects
    {"name": str, "form": str, "params": {...},
     "grid": {"coordinate": "log"|"linear", "lo": f, "hi": f, "n": int}}
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .errors import ConfigError
from .grids import SampledFunction


def _form_rho(params):
    return lambda s: s * np.exp(-s)


def _form_inverse_power(params):
    # s / (1+s)^2 = (1/4) sech^2(u/2): smooth, decays both ways in u
    return lambda s: s / (1.0 + s) ** 2


def _form_gaussian_log(params):
    c = float(params.get("center", 0.0))
    w = float(params.get("width", 1.0))
    return lambda s: np.exp(-((np.log(s) - c) ** 2) / (2.0 * w * w))


def _form_imag_power(params):
    sexp = float(params.get("s", 1.0))
    return lambda x: np.exp(1j * sexp * np.log(x))


def _form_gaussian_log_phase(params):
    c = float(params.get("center", 0.0))
    w = float(params.get("width", 1.0))
    sexp = float(params.get("s", 1.0))
    return lambda x: np.exp(
        -((np.log(x) - c) ** 2) / (2.0 * w * w) + 1j * sexp * np.log(x)
    )


def _form_bump_log(params):
    c = float(params.get("center", 0.0))
    w = float(params.get("width", 2.0))

    def fn(s):
        y = (np.log(np.asarray(s, dtype=float)) - c) / w
        out = np.zeros_like(y)
        mid = np.abs(y) < 1.0
        if np.any(mid):
            out[mid] = np.exp(1.0 - 1.0 / (1.0 - y[mid] ** 2))
        return out

    return fn


def _form_resolvent_symbol(params):
    theta = float(params.get("theta", 2.0))
    beta = float(params.get("beta", 0.5))
    w = np.exp(1j * theta)
    return lambda s: s**beta / (w * s + 1.0)


def _form_semigroup_symbol(params):
    z = complex(params.get("z_re", 1.0), params.get("z_im", 0.0))
    return lambda s: s * np.exp(-z * s)


def _form_gaussian(params):
    c = float(params.get("center", 0.0))
    w = float(params.get("width", 1.0))
    return lambda u: np.exp(-((u - c) ** 2) / (2.0 * w * w))


FORMS = {
    "rho": _form_rho,
    "inverse-power": _form_inverse_power,
    "gaussian-log": _form_gaussian_log,
    "imag-power": _form_imag_power,
    "gaussian-log-phase": _form_gaussian_log_phase,
    "bump-log": _form_bump_log,
    "resolvent-symbol": _form_resolvent_symbol,
    "semigroup-symbol": _form_semigroup_symbol,
    "gaussian": _form_gaussian,
}


def entry_to_function(entry: dict) -> SampledFunction:
    try:
        form = entry["form"]
        grid = entry["grid"]
        name = entry.get("name", form)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed corpus entry: {entry!r}") from exc
    if form not in FORMS:
        raise ConfigError(f"unknown corpus form {form!r}")
    fn = FORMS[form](entry.get("params", {}))
    return SampledFunction.from_callable(
        fn,
        grid.get("coordinate", "log"),
        float(grid["lo"]),
        float(grid["hi"]),
        int(grid["n"]),
        name=name,
    )


def load_corpus() -> list[SampledFunction]:
    """Load the corpus shipped in data/corpus.json."""
    text = resources.files("speccalc").joinpath("data/corpus.json").read_text()
    entries = json.loads(text)
    if not isinstance(entries, list):
        raise ConfigError("corpus file must hold a JSON list")
    return [entry_to_function(e) for e in entries]
