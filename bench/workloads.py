"""The three workloads: inputs made from the seed, the user calls of one round, and output checks.

Each workload object is built once per process (that is the input
generation counted in setup_s).  ``round(k)`` returns the labelled
zero-argument calls of round k, prepared outside any timed region;
``check(outputs)`` returns a list of problems, empty when every output
agrees with the independent computations in ``reference.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import expit

from pairlrt import beta_model, cli, montecarlo

import reference as ref

# scipy.stats is imported inside the checks: importing it here would add to setup_s
WILKS_Z = 4.5  # two-sided band half-width in standard errors; a false alarm is ~7e-6 per band
# The Wilks bands pool the first rounds, at most this many replicates.  chi2(r - 1) is
# the n -> infinity law; at n = 100 the measured mean is 3.99-4.15 rather than 4, which
# bands from many more replicates would flag, so a faster program must not narrow them.
WILKS_REPLICATES = 2000
R = 5  # size of the null's block in every workload, as in H04
SEASONS = 4  # comparison-bootstrap cycles through this many seasons of one seed
PAIR_K = 3  # comparisons per pair in a season, as in NBASmall
# Statistics within TIE of the observed one may fall either side of it.
TIE = 1e-6


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _op_seed(seed: int, k: int) -> int:
    """Seed handed to the program for round k: distinct across rounds and benchmark seeds."""
    return seed * 1_000_000 + k


def run_cli(args: list) -> str:
    """One in-process ``pairlrt`` invocation; returns what it wrote to stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        raise RuntimeError(f"pairlrt {args[0]} exited with {exc.code}: {err.getvalue().strip()}") from None
    return out.getvalue()


def same_output(a, b) -> bool:
    """Equal outputs of one call: CLI text, or the statistics and p-values of a Monte Carlo report."""
    if isinstance(a, str):
        return a == b
    return np.array_equal(a.stats, b.stats, equal_nan=True) and np.array_equal(a.pvalues, b.pvalues, equal_nan=True)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def proportion_gap(x1: float, m1: int, x2: float, m2: int, B: int) -> float:
    """How far two binomial shares x1/m1 and x2/m2 lie beyond WILKS_Z standard errors of
    their difference (plus 2/B); positive means they do not estimate one probability."""
    pooled = (x1 + x2) / (m1 + m2)
    sd = math.sqrt(max(pooled * (1.0 - pooled), 1.0 / B) * (1.0 / m1 + 1.0 / m2))
    return abs(x1 / m1 - x2 / m2) - (WILKS_Z * sd + 2.0 / B)


def check_statistic(tag: str, payload: dict, own_full: float, own_null: float) -> list:
    """Statistic from the reported logliks, and both logliks against independent maxima."""
    problems = []
    full, null = payload["fits"]["full"]["loglik"], payload["fits"]["null"]["loglik"]
    stat = payload["stat"]
    if not (stat >= 0.0 and _close(stat, max(2.0 * (full - null), 0.0))):
        problems.append(f"{tag}: stat {stat!r} is not 2(l_full - l_null) = {2.0 * (full - null)!r}")
    if abs(full - own_full) > ref.loglik_tol(own_full):
        problems.append(f"{tag}: full loglik {full!r} differs from the independent maximum {own_full!r}")
    if abs(null - own_null) > ref.loglik_tol(own_null):
        problems.append(f"{tag}: restricted loglik {null!r} differs from the independent maximum {own_null!r}")
    return problems


class GraphCalibration:
    """montecarlo.run_type1 on H04 (graph model, fixed regime, homogeneous null of r, L = 0)."""

    name = "graph-calibration"
    traced = (
        "montecarlo.run_scenario", "beta_model.simulate_graph", "beta_model.fit_mle",
        "beta_model.fit_restricted_homogeneous", "beta_model.expected_degrees",
        "beta_model.log_likelihood", "beta_model.fisher_info", "lrt.lrt_statistic", "numpy.linalg.solve",
    )

    def __init__(self, seed: int, workdir: Path, *, n: int = 100, reps: int = 100):
        self.seed, self.n, self.r, self.reps = seed, n, R, reps

    def scenario(self, k: int):
        return montecarlo.build_scenario("H04", n=self.n, r=self.r, L=0.0, reps=self.reps, seed=_op_seed(self.seed, k))

    def round(self, k: int) -> list:
        scenario = self.scenario(k)
        return [("run_type1", lambda: montecarlo.run_type1(scenario))]

    def spot_check(self, k: int, report, index: int) -> list:
        """Refit one replicate's draw, certify both fits independently, confirm its statistic."""
        scenario = self.scenario(k)
        g = beta_model.simulate_graph(scenario.true_beta, montecarlo.replicate_rng(scenario.seed, index))
        d = g.degrees.astype(float)
        full = beta_model.fit_mle(g)
        restr = beta_model.fit_restricted_homogeneous(g, self.r)
        tag = f"round {k} replicate {index}"
        if not (full.exists and restr.exists):
            return [] if not np.isfinite(report.stats[index]) else [f"{tag}: refit has no maximizer"]
        if not np.isfinite(report.stats[index]):
            return [f"{tag}: reported no statistic, but both refits exist"]
        problems = []
        s_full = np.abs(ref.graph_score(full.beta_hat, d)).max()
        s_restr = np.abs(ref.graph_homogeneous(self.n, self.r).project(ref.graph_score(restr.beta_hat, d))).max()
        if s_full > ref.SCORE_TOL or s_restr > ref.SCORE_TOL:
            problems.append(f"{tag}: score {s_full:.2e} (full), {s_restr:.2e} (restricted) above {ref.SCORE_TOL}")
        if np.any(restr.beta_hat[: self.r] != restr.beta_hat[0]):
            problems.append(f"{tag}: restricted fit breaks the tie of the first {self.r} parameters")
        own = 2.0 * (ref.graph_loglik(full.beta_hat, d) - ref.graph_loglik(restr.beta_hat, d))
        if abs(report.stats[index] - own) > 1e-6:
            problems.append(f"{tag}: reported stat {float(report.stats[index])!r}, independent {own!r}")
        return problems

    def check(self, outputs: list) -> list:
        from scipy.stats import chi2

        df = self.r - 1
        problems, pooled = [], []
        for k, _, report in outputs:
            stats, pvals = report.stats, report.pvalues
            ok = np.isfinite(stats)
            own_p = chi2.sf(stats[ok], df)
            if report.reps_used != ok.sum() or stats.size != self.reps:
                problems.append(f"round {k}: replicate accounting {report.reps_used} of {stats.size}")
            # L = 0: every edge has probability 1/2, so a degree of 0 or n - 1, the likely way for
            # a maximizer to be missing, has probability below n 2^(2-n) per replicate
            if report.nonexist_freq != 0.0:
                problems.append(f"round {k}: no maximizer in a share {report.nonexist_freq} of replicates")
            if np.any(stats[ok] < 0):
                problems.append(f"round {k}: negative statistic")
            if not np.allclose(pvals[ok], own_p, rtol=1e-9, atol=1e-14):
                problems.append(f"round {k}: p-values differ from chi2({df}).sf of the statistics")
            for a, rate in report.rejection_rate.items():
                if not _close(rate, float((own_p <= a).mean())):
                    problems.append(f"round {k}: rejection rate at {a} is {rate}, recomputed {(own_p <= a).mean()}")
            pooled.append(stats[ok])
        ends = [outputs[0]] if len(outputs) == 1 else [outputs[0], outputs[-1]]
        for k, _, report in ends:
            for index in sorted({0, self.reps // 2, self.reps - 1}):
                problems += self.spot_check(k, report, index)
        # Wilks: under the null the statistic is chi2(r - 1); bands from that law and the count m
        stats = np.concatenate(pooled[: max(1, WILKS_REPLICATES // self.reps)])
        m = stats.size
        rate = float((chi2.sf(stats, df) <= 0.05).mean())
        rate_band = WILKS_Z * math.sqrt(0.05 * 0.95 / m)
        mean_band = WILKS_Z * math.sqrt(2.0 * df / m)
        self.summary = {"replicates": m, "rate_0.05": rate, "mean_stat": float(stats.mean())}
        if abs(rate - 0.05) > rate_band:
            problems.append(f"Wilks: rejection rate at 0.05 is {rate:.4f} over {m} replicates, band 0.05 +- {rate_band:.4f}")
        if abs(stats.mean() - df) > mean_band:
            problems.append(f"Wilks: mean statistic {stats.mean():.3f} over {m} replicates, band {df} +- {mean_band:.3f}")
        return problems


class GraphFile:
    """``pairlrt fit`` and two ``pairlrt test`` calls on one large edge-list file."""

    name = "graph-file"
    traced = (
        "cli.main", "core.load_edge_list", "lrt.run_test", "lrt.lrt_statistic", "beta_model.fit_mle",
        "beta_model.fit_restricted_homogeneous", "beta_model.expected_degrees", "beta_model.log_likelihood",
        "beta_model.fisher_info", "fisher_approx.diag_approx", "numpy.linalg.solve",
    )

    def __init__(self, seed: int, workdir: Path, *, n: int = 1000):
        self.n, self.r_fixed, self.r_growing = n, R, n // 2
        # leading half tied at 0, so both homogeneous nulls hold; about n^2/4 edges
        half = n // 2
        beta = np.concatenate([np.zeros(half), np.linspace(-0.5, 0.5, n - half)])
        rng = _rng(seed, 1)
        iu, ju = np.triu_indices(n, k=1)
        p = expit(beta[iu] + beta[ju])
        while True:
            keep = rng.random(p.size) < p
            self.degrees = (np.bincount(iu[keep], minlength=n) + np.bincount(ju[keep], minlength=n)).astype(float)
            if self.degrees.min() > 0 and self.degrees.max() < n - 1:
                break
        a, b = iu[keep], ju[keep]
        flip = rng.random(a.size) < 0.5
        a, b = np.where(flip, b, a), np.where(flip, a, b)
        order = rng.permutation(a.size)
        self.path = workdir / "graph.txt"
        lines = [f"n={n}"] + [f"{i} {j}" for i, j in zip(a[order].tolist(), b[order].tolist())]
        self.path.write_text("\n".join(lines) + "\n")

    def round(self, k: int) -> list:
        path = str(self.path)
        test = ["test", "--model", "beta", "--input", path]
        return [
            ("fit", lambda: run_cli(["fit", "--model", "beta", "--input", path])),
            ("test_fixed", lambda: run_cli(test + ["--null", f"homogeneous:{self.r_fixed}", "--regime", "fixed"])),
            ("test_growing", lambda: run_cli(test + ["--null", f"homogeneous:{self.r_growing}", "--regime", "growing"])),
        ]

    def _restricted_max(self, r: int) -> float:
        d = self.degrees
        _, ll, score = ref.maximize(
            lambda b: ref.graph_loglik(b, d), lambda b: ref.graph_score(b, d),
            ref.graph_info_matvec, ref.graph_homogeneous(self.n, r),
        )
        if score > ref.SCORE_TOL:
            raise RuntimeError(f"independent restricted maximum not certified: score {score:.2e}")
        return ll

    def check_fit(self, tag: str, payload: dict) -> tuple[list, float]:
        d = self.degrees
        beta = np.asarray(payload["beta_hat"], dtype=float)
        problems = []
        if beta.shape != (self.n,):
            return [f"{tag}: beta_hat has shape {beta.shape}"], float("nan")
        score = np.abs(ref.graph_score(beta, d)).max()
        if score > ref.SCORE_TOL:
            problems.append(f"{tag}: max-abs score {score:.2e} at beta_hat is above {ref.SCORE_TOL}")
        own = ref.graph_loglik(beta, d)
        if abs(payload["loglik"] - own) > ref.loglik_tol(own):
            problems.append(f"{tag}: loglik {payload['loglik']!r}, independent {own!r}")
        if not np.allclose(payload["se"], 1.0 / np.sqrt(ref.graph_info_diag(beta)), rtol=1e-9):
            problems.append(f"{tag}: standard errors differ from 1/sqrt(v_ii)")
        return problems, own

    def check(self, outputs: list) -> list:
        from scipy.stats import chi2, norm

        own_null = {r: self._restricted_max(r) for r in (self.r_fixed, self.r_growing)}
        problems, own_full = [], None
        for k, label, text in outputs:
            payload = json.loads(text)
            tag = f"round {k} {label}"
            if label == "fit":
                found, own_full = self.check_fit(tag, payload)
                problems += found
                continue
            if own_full is None:
                problems.append(f"{tag}: no certified fit to compare with")
                continue
            r = payload["null"]["r"]
            problems += check_statistic(tag, payload, own_full, own_null[r])
            stat, p = payload["stat"], payload["p_value"]
            if label == "test_fixed":
                if payload["reference"] != {"type": "chi_square", "df": r - 1}:
                    problems.append(f"{tag}: reference {payload['reference']}, expected chi-square with {r - 1} df")
                if not _close(p, chi2.sf(stat, r - 1)):
                    problems.append(f"{tag}: p-value {p!r}, chi2({r - 1}).sf gives {chi2.sf(stat, r - 1)!r}")
                if stat > chi2.isf(1e-7, r - 1):
                    problems.append(f"{tag}: stat {stat:.2f} beyond the chi2({r - 1}) 1e-7 tail under a true null")
            else:
                z = (stat - r) / math.sqrt(2.0 * r)
                if payload["reference"] != {"type": "normalized_gaussian"} or not _close(payload["normalized_stat"], z):
                    problems.append(f"{tag}: normalized statistic {payload.get('normalized_stat')!r}, expected {z!r}")
                if not _close(p, chi2.sf(stat, r)) or not _close(payload["diagnostics"]["p_value_normal"], norm.sf(z)):
                    problems.append(f"{tag}: p-values differ from chi2({r}).sf and the normal tail")
                if abs(z) > 5.0:
                    problems.append(f"{tag}: normalized statistic {z:.2f} is more than 5 from 0 under a true null")
        return problems


class ComparisonBootstrap:
    """Bootstrap-calibrated ``pairlrt test`` of a specified null on season-sized comparison tables."""

    name = "comparison-bootstrap"
    traced = (
        "cli.main", "core.load_comparisons", "core.ComparisonTable.totals", "lrt.run_test",
        "lrt.bootstrap_distribution", "lrt.lrt_statistic", "bt_model.simulate_comparisons", "bt_model.bt_fit_mle",
        "bt_model.bt_fit_restricted", "bt_model.bt_expected_wins", "bt_model.bt_log_likelihood",
        "bt_model.bt_fisher_info", "bt_model.strongly_connected", "numpy.linalg.solve",
    )

    def __init__(self, seed: int, workdir: Path, *, n: int = 30, B: int = 999):
        self.seed, self.n, self.r, self.B = seed, n, R, B
        r, k = R, PAIR_K
        # NBASmall shape: a third of the subjects level with the reference, then a gentle slope
        head = n // 3
        beta = np.concatenate([np.zeros(head), 0.2 * np.arange(1, n - head + 1) * math.log(n) / n])
        self.values = beta[1:r]
        self.null_path = workdir / "null.txt"
        self.null_path.write_text("".join(f"{float(v)!r}\n" for v in self.values))
        # The bootstrap's work depends on the season (its fits' iteration counts differ by
        # about 10% between seeds), so rounds cycle through several seasons of one seed.
        iu, ju = np.triu_indices(n, k=1)
        p = expit(beta[iu] - beta[ju])
        self.wins, self.paths = [], []
        for s in range(SEASONS):
            rng = _rng(seed, 2, s)
            while True:
                wins = np.zeros((n, n), dtype=np.int64)
                wins[iu, ju] = rng.binomial(k, p)
                wins[ju, iu] = k - wins[iu, ju]
                won = wins.sum(axis=1)[r:]
                if ref.bt_exists(wins) and won.min() > 0 and won.max() < k * (n - 1):
                    break
            path = workdir / f"season-{s}.csv"
            rows = [f"n={n}"] + [f"{i},{j},{wins[i, j]}" for i, j in zip(*np.nonzero(wins))]
            path.write_text("\n".join(rows) + "\n")
            self.wins.append(wins.astype(float))
            self.paths.append(path)

    def season(self, k: int) -> int:
        return k % len(self.paths)

    def round(self, k: int) -> list:
        args = ["test", "--model", "bt", "--input", str(self.paths[self.season(k)]),
                "--null", f"specified:{self.null_path}", "--regime", "fixed", "--seed", str(_op_seed(self.seed, k))]
        if self.B != 999:
            args += ["--bootstrap-b", str(self.B)]
        return [("bootstrap_test", lambda: run_cli(args))]

    def _embeddings(self) -> tuple:
        return ref.bt_full(self.n), ref.bt_specified(self.n, self.r, self.values)

    def _maxima(self, s: int) -> tuple:
        """Independent full and restricted maxima of season s: both logliks, then the restricted beta."""
        w = self.wins[s]
        maxima = []
        for emb in self._embeddings():
            beta, ll, score = ref.maximize(lambda b: ref.bt_loglik(b, w), lambda b: ref.bt_score(b, w),
                                           lambda b: ref.bt_info_matvec(b, w), emb)
            if score > ref.SCORE_TOL:
                raise RuntimeError(f"independent comparison-model maximum not certified: score {score:.2e}")
            maxima.append(ll)
        return maxima[0], maxima[1], beta

    def bootstrap(self, s: int, beta_null: np.ndarray, seed: int) -> np.ndarray:
        """The program's bootstrap redone apart from it: the same child streams of --seed, drawn
        from our restricted maximum with the season's pair totals, fit by our own Newton."""
        w = self.wins[s]
        totals = (w + w.T).astype(np.int64)
        stats = []
        for child in np.random.default_rng(seed).spawn(self.B):
            boot = ref.bt_simulate(beta_null, totals, child)
            if not ref.bt_exists(boot):
                continue
            lls = []
            for emb in self._embeddings():
                _, ll, score = ref.maximize_dense(lambda b: ref.bt_loglik(b, boot), lambda b: ref.bt_score(b, boot),
                                                  lambda b: ref.bt_info(b, boot), emb)
                if score > ref.SCORE_TOL:
                    raise RuntimeError(f"independent bootstrap fit not certified: score {score:.2e}")
                lls.append(ll)
            stats.append(2.0 * (lls[0] - lls[1]))
        return np.array(stats)

    def check_bootstrap(self, k: int, payload: dict, maxima: tuple) -> list:
        """The reported p-value against the exceedances of the independent bootstrap statistics.

        The two bootstraps share their child streams but not their draws: subjects with equal
        win totals have equal maxima, so their pair's probability is 1/2 up to rounding, and
        numpy's binomial draws k - X instead of X when it rounds above 1/2.  Our maximum and
        the program's differ by about 1e-10, which flips such pairs, so the two exceedance
        shares are compared as independent estimates of one tail probability.
        """
        full, null, beta_null = maxima
        observed = 2.0 * (full - null)
        stats = self.bootstrap(self.season(k), beta_null, _op_seed(self.seed, k))
        used = payload["diagnostics"]["bootstrap_used"]
        exceed = round(payload["p_value"] * (used + 1)) - 1
        low, high = int((stats > observed + TIE).sum()), int((stats >= observed - TIE).sum())
        own = min(max(exceed, low), high)
        if (proportion_gap(used, self.B, stats.size, self.B, self.B) > 0
                or proportion_gap(exceed, used, own, stats.size, self.B) > 0):
            return [f"round {k}: bootstrap has {exceed} exceedances in {used} usable replicates; "
                    f"redone apart from the program, {low}..{high} in {stats.size}"]
        return []

    def check(self, outputs: list) -> list:
        maxima = {s: self._maxima(s) for s in {self.season(k) for k, _, _ in outputs}}
        problems, pvals = [], {}
        B = self.B
        for k, label, text in outputs:
            payload = json.loads(text)
            tag = f"round {k} {label}"
            problems += check_statistic(tag, payload, *maxima[self.season(k)][:2])
            p, used = payload["p_value"], payload["diagnostics"]["bootstrap_used"]
            if payload["reference"] != {"type": "bootstrap", "B": B}:
                problems.append(f"{tag}: reference {payload['reference']}, expected a bootstrap with B={B}")
            if not B / 2 <= used <= B:
                problems.append(f"{tag}: {used} bootstrap replicates used of {B}")
            if not 1.0 / (B + 1) <= p <= 1.0 or abs(p * (used + 1) - round(p * (used + 1))) > 1e-6:
                problems.append(f"{tag}: p-value {p!r} is not (1 + exceedances) / ({used} + 1)")
            pvals.setdefault(self.season(k), []).append(p)
            if k == outputs[0][0]:
                problems += self.check_bootstrap(k, payload, maxima[self.season(k)])
        # bootstrap seeds differ per round; the p-values of one season estimate one tail and must agree
        for s, ps in pvals.items():
            centre = float(np.median(ps))
            spread = WILKS_Z * math.sqrt(max(centre * (1.0 - centre), 1.0 / B) / (B / 2)) + 2.0 / B
            if max(abs(q - centre) for q in ps) > spread:
                problems.append(f"season {s}: bootstrap p-values {min(ps):.4f}..{max(ps):.4f} spread beyond {spread:.4f}")
        return problems


WORKLOADS = {w.name: w for w in (GraphCalibration, GraphFile, ComparisonBootstrap)}
