"""Command-line front end.

Every verb is a thin composition of library calls: parse inputs, call one or
two functions, serialize the result.  Machine-readable output goes to stdout
(or --out); one-line human summaries go to stderr.

Exit codes: 0 success, 2 usage or configuration error, 3 maximizer does not
exist (fit/test), 4 malformed input data.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import Optional

import click
import numpy as np
from click.core import ParameterSource

from . import beta_model, bt_model, fisher_approx, lrt, moments_oracle, montecarlo
from .core import (
    TOL_SCORE,
    DataFormatError,
    NonexistentMLEError,
    NullHypothesis,
    load_comparisons,
    load_edge_list,
    load_vector,
)


def _emit(payload, out: Optional[str]) -> None:
    # numpy arrays and scalars become lists and plain numbers
    _emit_text(json.dumps(payload, indent=2, sort_keys=True, default=lambda x: x.tolist()) + "\n", out)


def _emit_text(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _read_source(path: str) -> str:
    """A data file, or stdin for '-', as UTF-8 text; bytes that are not UTF-8
    are malformed input data."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, encoding="utf-8") as fh:  # read() decodes it whole: exc.start is a file offset
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: byte {exc.start} (0x{exc.object[exc.start]:02x}) is not UTF-8") from None


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DataFormatError as exc:
            click.echo(f"data format error: {exc}", err=True)
            sys.exit(4)
        except NonexistentMLEError as exc:
            click.echo(f"maximizer does not exist: {exc}", err=True)
            sys.exit(3)
        except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _whole_number(spec: str, option: str, name: str) -> int:
    """The whole number ``name`` after the colon of ``spec``, a value of ``option``; a ValueError names both."""
    text = spec.split(":", 1)[1]
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{option} needs a whole number {name}, got {text!r}") from None


def _parse_null(spec: str, model: str) -> NullHypothesis:
    if spec.startswith("homogeneous:"):
        null = NullHypothesis.homogeneous(_whole_number(spec, "--null homogeneous:<r>", "r"))
    elif spec.startswith("specified:"):
        values = load_vector(_read_source(spec.split(":", 1)[1]))
        r = values.size if model == "beta" else values.size + 1
        null = NullHypothesis.specified(r, values)
    else:
        raise ValueError("--null must look like specified:<file> or homogeneous:<r>")
    return null


def _given(names) -> list:
    """The options among ``names`` (parameter names) that the call gave, as flags; a default never counts."""
    source = click.get_current_context().get_parameter_source
    return [f"--{name.replace('_', '-')}" for name in names if source(name) is not ParameterSource.DEFAULT]


def _load_data(model: str, path: str):
    text = _read_source(path)
    return load_edge_list(text) if model == "beta" else load_comparisons(text)


def _load_scenario(scenario_path: Optional[str], preset: Optional[str], **overrides) -> montecarlo.Scenario:
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if scenario_path:
        if preset:
            raise ValueError("give either --scenario <file> or --preset <name>, not both")
        for key in ("model", "n", "r", "L", "c", "k"):
            if key in overrides:
                raise ValueError(f"--{key} cannot change a --scenario file; edit the file instead")
        with open(scenario_path) as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise ValueError(f"{scenario_path}: a scenario must be a JSON object, not {type(d).__name__}")
        d.update(overrides)  # only seed, reps and alphas are left
        return montecarlo.Scenario.from_dict(d)
    if not preset:
        raise ValueError("give either --scenario <file> or --preset <name>")
    return montecarlo.build_scenario(preset, **overrides)


_scenario_options = [
    click.option("--scenario", "scenario_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Scenario JSON file."),
    click.option("--preset", type=click.Choice(montecarlo.PRESETS), default=None, help="Named design instead of a file."),
    click.option("--model", type=click.Choice(["beta", "bt"]), default=None),
    click.option("--n", type=int, default=None),
    click.option("--r", type=int, default=None),
    click.option("--L", "L", type=float, default=None, help="Profile height for H01/H02/H04."),
    click.option("--c", type=float, default=None, help="Signal strength for power presets."),
    click.option("--k", type=int, default=None, help="Constant comparisons per pair (comparison model)."),
    click.option("--reps", type=int, default=None),
    click.option("--seed", type=click.IntRange(min=0), default=None),
]


def _with_scenario_options(fn):
    for opt in reversed(_scenario_options):
        fn = opt(fn)
    return fn


@click.group()
def main() -> None:
    """Likelihood-ratio testing for graph and paired-comparison models."""


@main.command()
@click.option("--model", type=click.Choice(["beta", "bt"]), required=True)
@click.option("--input", "input_path", required=True, help="Data file, or - for stdin.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--tol", type=float, default=TOL_SCORE, show_default=True)
@_guard
def fit(model: str, input_path: str, out: Optional[str], tol: float) -> None:
    """Maximum-likelihood fit; reports parameters and approximate standard errors."""
    data = _load_data(model, input_path)
    if model == "beta":
        result = beta_model.fit_mle(data, tol=tol)
        if result.exists:
            se = np.sqrt(fisher_approx.diag_approx(beta_model.degree_variances(result.beta_hat)))
    else:
        result = bt_model.bt_fit_mle(data, tol=tol)
        if result.exists:
            free = np.diag(bt_model.bt_fisher_info(result.beta_hat, data))[1:]
            se = np.concatenate([[0.0], np.sqrt(1.0 / free)])
    if not result.exists:
        raise NonexistentMLEError("degenerate data; see existence conditions for the model")
    payload = {"model": model, "n": data.n, "beta_hat": result.beta_hat, "se": se}
    payload.update(result.summary())
    click.echo(
        f"fitted {model} model, n={data.n}, loglik={result.loglik:.6f}, "
        f"iterations={result.iterations}",
        err=True,
    )
    _emit(payload, out)


@main.command()
@click.option("--model", type=click.Choice(["beta", "bt"]), required=True)
@click.option("--input", "input_path", required=True)
@click.option("--null", "null_spec", required=True, help="specified:<file> or homogeneous:<r>.")
@click.option("--regime", type=click.Choice(list(lrt.REGIMES)), required=True)
@click.option("--bootstrap-b", type=click.IntRange(min=1), default=lrt.DEFAULT_BOOTSTRAP_B, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Bootstrap seed.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def test(
    model: str,
    input_path: str,
    null_spec: str,
    regime: str,
    bootstrap_b: int,
    seed: int,
    out: Optional[str],
) -> None:
    """Likelihood-ratio test of a leading-block null."""
    data = _load_data(model, input_path)
    null = _parse_null(null_spec, model)
    given = _given(("bootstrap_b", "seed"))
    if given and not isinstance(lrt.reference_distribution(model, null, regime), lrt.Bootstrap):
        raise ValueError(f"a {regime}-regime test of a {null.kind} null in model {model!r} draws no bootstrap: "
                         f"it does not read {', '.join(given)}")
    report = lrt.run_test(
        data, null, regime, bootstrap_reps=bootstrap_b, rng=np.random.default_rng(seed)
    )
    click.echo(
        f"stat={report.stat:.6f}"
        + (f", p={report.p_value:.6f}" if report.p_value is not None else ""),
        err=True,
    )
    _emit(report.to_dict(), out)


@main.command()
@_with_scenario_options
@click.option("--index", type=click.IntRange(min=0), default=0, show_default=True, help="Replicate index to draw.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def simulate(index, out, **design) -> None:
    """Draw one dataset from a scenario's generating parameters."""
    scenario = _load_scenario(**design)
    data = montecarlo.simulate(scenario, montecarlo.replicate_rng(scenario.seed, index))
    click.echo(f"simulated {scenario.model} dataset, n={scenario.n}, replicate {index}", err=True)
    _emit_text(data.to_text(), out)


@main.command()
@_with_scenario_options
@click.option("--alpha", "alphas", type=float, multiple=True, help="Rejection levels (repeatable).")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--stats-csv", type=click.Path(dir_okay=False), default=None, help="Dump replicate statistics.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def power(alphas, workers, stats_csv, out, **design) -> None:
    """Monte Carlo rejection rates (Type I error for null-true scenarios, power otherwise)."""
    scenario = _load_scenario(alphas=tuple(alphas) or None, **design)
    run = montecarlo.run_type1 if scenario.kind == "type1" else montecarlo.run_scenario
    report = run(scenario, workers=workers)
    if stats_csv:
        with open(stats_csv, "w") as fh:
            for s in report.stats:
                fh.write(f"{s:.12g}\n")
    payload = {"scenario": scenario.to_dict(), **report.to_dict()}
    rates = ", ".join(f"alpha={a:g}: {v:.4f}" for a, v in report.rejection_rate.items())
    click.echo(f"{rates}; nonexistent {report.nonexist_freq:.4f}", err=True)
    _emit(payload, out)


@main.command()
@_with_scenario_options
@click.option("--reference", default=None, help="chi2:<df> or normal; default follows the dispatch.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def qq(reference, workers, out, **design) -> None:
    """Quantile pairs of the statistic against a reference law, as CSV."""
    scenario = _load_scenario(**design)
    ref = None
    if reference:
        if reference.startswith("chi2:"):
            ref = lrt.ChiSquare(_whole_number(reference, "--reference chi2:<df>", "df"))
        elif reference == "normal":
            ref = lrt.NormalizedGaussian()
        else:
            raise ValueError("--reference must be chi2:<df> or normal")
    pairs = montecarlo.qq_data(scenario, ref, workers=workers)
    lines = ["theoretical,empirical"]
    lines.extend(f"{t:.12g},{e:.12g}" for t, e in pairs)
    _emit_text("\n".join(lines) + "\n", out)


# the oracle options that each --stat never reads; giving one is a usage error
_ORACLE_UNREAD = {"quadratic": (), "cubic": ("mc_reps", "seed"), "mixed": ("r", "weights", "mc_reps", "seed")}


@main.command()
@click.option("--stat", type=click.Choice(list(_ORACLE_UNREAD)), required=True)
@click.option("--beta-file", required=True, help="Parameter vector, one value per line.")
@click.option("--r", type=click.IntRange(min=0), default=None, help="Leading block size (defaults to n).")
@click.option("--weights", default="ones", show_default=True,
              help="ones, recip-var (1/v_ii), or a file of r values.")
@click.option("--enumerate", "do_enum", is_flag=True, help="Cross-check by exhaustive enumeration (n <= 5).")
@click.option("--mc-reps", type=click.IntRange(min=0), default=0, show_default=True,
              help="Monte Carlo check replicates.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def oracle(stat, beta_file, r, weights, do_enum, mc_reps, seed, out) -> None:
    """Exact moments of weighted centered-degree sums."""
    unread, unless = _ORACLE_UNREAD[stat], ""
    if stat == "quadratic" and mc_reps == 0:  # the seed feeds only the Monte Carlo check
        unread, unless = ("seed",), " without --mc-reps"
    given = _given(unread)
    if given:
        raise ValueError(f"--stat {stat} does not read {', '.join(given)}{unless}")
    beta = load_vector(_read_source(beta_file))
    n = beta.size
    r = n if r is None else r
    payload: dict = {"n": n, "r": r, "stat": stat}
    if stat == "mixed":
        f = np.ones((n, n))
        np.fill_diagonal(f, 0.0)
        payload["bound"] = moments_oracle.mixed_sum_variance_bound(beta, f)
        if do_enum:
            exact = moments_oracle.enumerate_exact_moments(beta, moments_oracle.MIXED_SUM, f=f)
            payload["enumeration"] = exact.to_dict()
        _emit(payload, out)
        return
    if weights == "ones":
        f = np.ones(r)
    elif weights == "recip-var":
        f = 1.0 / np.diag(beta_model.fisher_info(beta))[:r]
    else:
        f = load_vector(_read_source(weights))
    name = moments_oracle.QUADRATIC_SUM if stat == "quadratic" else moments_oracle.CUBIC_SUM
    if stat == "quadratic" and mc_reps > 0:
        report = moments_oracle.simulated_quadratic_moments(
            beta, r, f, mc_reps, np.random.default_rng(seed)
        )
    elif stat == "quadratic":
        report = moments_oracle.quadratic_sum_variance(beta, r, f)
    else:
        report = moments_oracle.cubic_sum_variance(beta, r, f)
    payload["formula"] = report.to_dict()
    if do_enum:
        exact = moments_oracle.enumerate_exact_moments(beta, name, r=r, f=f)
        payload["enumeration"] = exact.to_dict()
    _emit(payload, out)


@main.command("matrix-diag")
@click.option("--beta-file", required=True)
@click.option("--r", type=int, default=0, show_default=True)
@click.option("--homogeneous", is_flag=True, help="Check the tied-block approximant instead.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def matrix_diag(beta_file, r, homogeneous, out) -> None:
    """Diagonal-approximant error report for the information-matrix inverse."""
    beta = load_vector(_read_source(beta_file))
    if homogeneous:
        report = fisher_approx.check_homogeneous_bound(beta, r)
    else:
        report = fisher_approx.check_inverse_bound(beta, r)
    _emit(report.to_dict(), out)


if __name__ == "__main__":
    main()
