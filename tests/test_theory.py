import itertools
import json
import math
import pathlib
from dataclasses import asdict

import numpy as np
import pytest

from grpsel.errors import ConfigError, DomainError, SingularSupport, TooLarge
from grpsel.theory import (
    chisq_tail_bound,
    eta3,
    eta_bounds,
    irrepresentable_lhs,
    make_oracle_problem,
    monte_carlo_theorem1,
    oracle_ls,
    random_problem,
    run_experiment,
    src_spectrum,
    zeta_norm,
)

from conftest import cross_orthogonal_design, gaussian_design


class TestChisqTailBound:
    def test_approaches_one_near_domain_edge(self):
        assert chisq_tail_bound(1.0 + 1e-12, 5) == pytest.approx(1.0, abs=1e-5)

    def test_hand_value(self):
        # k=1, t=2.5: exponent is (sqrt(4)-1)^2/4 = 1/4
        assert chisq_tail_bound(2.5, 1) == pytest.approx(math.exp(-0.25), abs=1e-12)
        assert chisq_tail_bound(2.5, 1) == pytest.approx(0.7788007830714049, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chisq_tail_bound(1.0, 3)
        with pytest.raises(DomainError):
            chisq_tail_bound(0.5, 3)
        with pytest.raises(DomainError):
            chisq_tail_bound(2.0, 0)

    def test_bounds_chi_square_tail_by_sampling(self, rng):
        draws = rng.chisquare(3, 100_000)
        empirical = np.mean(draws >= 3 * 4.0)
        assert empirical <= chisq_tail_bound(4.0, 3)


class TestOracleLs:
    def test_empty_support_returns_zero(self):
        problem = random_problem(40, [2, 2], support=[], beta_star=1.0, sigma=1.0)
        assert np.all(oracle_ls(problem) == 0.0)
        assert problem.beta_star == math.inf

    def test_full_support_is_ordinary_least_squares(self):
        problem = random_problem(60, [2, 3], support=[0, 1], beta_star=1.0,
                                 sigma=1.0, seed=1)
        y = np.random.default_rng(5).standard_normal(60)
        ours = oracle_ls(problem, y)
        ls, *_ = np.linalg.lstsq(problem.design.X, y, rcond=None)
        np.testing.assert_allclose(ours, ls, atol=1e-10)

    def test_matrix_response_is_one_fit_per_column(self):
        problem = random_problem(50, [2, 3, 1], support=[0, 2], beta_star=1.0,
                                 sigma=1.0, seed=4)
        Y = np.random.default_rng(6).standard_normal((50, 7))
        coef = oracle_ls(problem, Y)
        assert coef.shape == (problem.design.p, 7)
        for k in range(7):
            np.testing.assert_allclose(coef[:, k], oracle_ls(problem, Y[:, k]),
                                       rtol=0, atol=1e-14)

    def test_normal_equations_identity(self):
        # the support fit solves the normal equations exactly: the loss
        # gradient vanishes on every support group, and the solution equals
        # the independent least squares route
        problem = random_problem(80, [2, 2, 2, 2], support=[1, 3],
                                 beta_star=2.0, sigma=1.0, seed=2)
        rng = np.random.default_rng(7)
        y = problem.design.X @ problem.true_coef + rng.standard_normal(80)
        coef = oracle_ls(problem, y)
        resid = y - problem.design.X @ coef
        for j in problem.support:
            sl = problem.design.group_slice(j)
            grad = problem.design.X[:, sl].T @ resid / 80
            assert np.max(np.abs(grad)) <= 1e-10
        cols = problem.support_cols
        ref, *_ = np.linalg.lstsq(problem.design.X[:, cols], y, rcond=None)
        np.testing.assert_allclose(coef[cols], ref, atol=1e-10)


class TestEtaBounds:
    def test_full_support_kills_eta1(self):
        problem = random_problem(200, [2, 2], support=[0, 1], beta_star=3.0,
                                 sigma=1.0, seed=3)
        e1, e2 = eta_bounds(problem, lam=0.5, gamma=3.0)
        assert e1 == 0.0 and e2 > 0.0

    def test_empty_support_kills_eta2(self):
        problem = random_problem(200, [2, 2], support=[], beta_star=1.0,
                                 sigma=1.0, seed=4)
        e1, e2 = eta_bounds(problem, lam=0.5, gamma=3.0)
        assert e2 == 0.0 and e1 > 0.0

    def test_numeric_case_composes_tail_bound(self):
        problem = random_problem(200, [2] * 10, support=[0, 1], beta_star=2.0,
                                 sigma=1.0, seed=5)
        lam, gamma = 0.4, 3.0
        e1, e2 = eta_bounds(problem, lam, gamma)
        expect1 = 8 * chisq_tail_bound(200 * lam**2, 2)
        gap = problem.beta_star - gamma * lam
        expect2 = 2 * chisq_tail_bound(problem.c1 * 200 * gap**2, 2)
        assert e1 == pytest.approx(expect1, rel=1e-12)
        assert e2 == pytest.approx(expect2, rel=1e-12)

    def test_domain_errors_name_the_failing_condition(self):
        problem = random_problem(50, [2, 2, 2], support=[0], beta_star=2.0,
                                 sigma=1.0, seed=6)
        with pytest.raises(DomainError, match="n\\*lam\\^2"):
            eta_bounds(problem, lam=0.01, gamma=3.0)
        with pytest.raises(DomainError, match="beta_star"):
            eta_bounds(problem, lam=1.0, gamma=3.0)

    def test_monotonicity_in_lambda(self):
        problem = random_problem(300, [2] * 8, support=[0, 1], beta_star=3.0,
                                 sigma=1.0, seed=7)
        lams = np.linspace(0.12, 0.6, 12)
        pairs = [eta_bounds(problem, lam, 2.5) for lam in lams]
        e1 = [p[0] for p in pairs]
        e2 = [p[1] for p in pairs]
        assert all(a >= b - 1e-15 for a, b in zip(e1, e1[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(e2, e2[1:]))


def test_eta3_formula_and_domain():
    problem = random_problem(300, [2] * 6, support=[0], beta_star=3.0,
                             sigma=1.0, seed=8)
    c_star, c_sup = 0.5, 1.5
    lam = 1.0
    value = eta3(problem, lam, c_star, c_sup)
    k_star = c_sup / c_star - 0.5
    m_star = k_star * 1
    xi = 1 / (4 * c_sup * 2)
    t = xi * 300 * lam**2 / 2
    expect = (5**m_star) * math.exp(m_star) / m_star**m_star * math.exp(
        -m_star * 2 * (math.sqrt(2 * t - 1) - 1) ** 2 / 4
    )
    assert value == pytest.approx(expect, rel=1e-10)
    with pytest.raises(DomainError):
        eta3(problem, 0.01, c_star, c_sup)


class TestSrcSpectrum:
    def test_globally_orthonormal_design_gives_unit_bounds(self):
        design = cross_orthogonal_design(40, [2, 2, 2], seed=11)
        c_star, c_sup = src_spectrum(design.X, design.groups, d_star=6)
        assert c_star == pytest.approx(1.0, abs=1e-10)
        assert c_sup == pytest.approx(1.0, abs=1e-10)

    def test_single_group_limit(self):
        design, _ = gaussian_design(50, [3, 2], sigma=1.0, seed=12)
        c_star, c_sup = src_spectrum(design.X, design.groups, d_star=2)
        block = design.X[:, design.group_slice(1)]
        eigs = np.linalg.eigvalsh(block.T @ block / 50)
        # only the d=2 group fits within d_star=2; its spectrum is the answer
        assert c_star == pytest.approx(min(eigs[0], 1.0), abs=1e-10)
        assert c_sup == pytest.approx(max(eigs[-1], 1.0), abs=1e-10)

    def test_guard_raises_for_many_groups(self):
        groups = tuple((j, 1) for j in range(25))
        with pytest.raises(TooLarge):
            src_spectrum(np.zeros((2, 25)), groups, d_star=3)


class TestIrrepresentable:
    def test_zero_when_signal_clears_gamma_lam(self):
        for seed in range(10):
            problem = random_problem(60, [2] * 5, support=[0, 1], beta_star=2.0,
                                     sigma=1.0, seed=seed)
            lam = 0.5 * problem.beta_star / 3.0
            value = irrepresentable_lhs(
                problem.design.X, problem.design.groups, problem.support,
                problem.true_coef, lam, 3.0,
            )
            assert value <= 1e-12

    def test_empty_support_is_zero(self):
        problem = random_problem(30, [2, 2], support=[], beta_star=1.0,
                                 sigma=1.0, seed=13)
        assert irrepresentable_lhs(problem.design.X, problem.design.groups,
                                   (), problem.true_coef, 0.3, 3.0) == 0.0

    def test_partial_saturation_matches_dense_algebra(self):
        rng = np.random.default_rng(14)
        design, _ = gaussian_design(50, [2, 2, 2], sigma=1.0, seed=14)
        beta = np.zeros(6)
        beta[0:2] = [3.0, 0.0]   # norm 3, above gamma*lam*sqrt(2)
        beta[2:4] = [0.2, 0.1]   # small, keeps a nonzero slope
        lam, gamma = 0.4, 2.0
        value = irrepresentable_lhs(design.X, design.groups, (0, 1), beta,
                                    lam, gamma)
        blocks = []
        for j, (s, d) in enumerate(design.groups[:2]):
            b = beta[s:s + d]
            nb = np.linalg.norm(b)
            slope = lam * max(1 - nb / (math.sqrt(d) * gamma * lam), 0.0)
            blocks.append(slope * b / nb)
        v = np.concatenate(blocks)
        Xs = design.X[:, :4]
        expected = np.linalg.norm(
            design.X[:, 4:6].T @ Xs @ np.linalg.inv(Xs.T @ Xs) @ v
        ) / lam
        assert value == pytest.approx(expected, abs=1e-10)
        assert value > 0

    def test_rank_deficient_support_raises(self):
        # a centered 4 x 6 design has rank 3, below the support's 4 columns;
        # a plain Cholesky factorization of the support Gram succeeds
        # through roundoff for some of these seeds
        beta = np.repeat([0.1, 0.0], [4, 2])
        for seed in range(20):
            X = np.random.default_rng(seed).standard_normal((4, 6))
            X -= X.mean(axis=0)
            with pytest.raises(SingularSupport):
                irrepresentable_lhs(X, ((0, 2), (2, 2), (4, 2)), (0, 1), beta, 0.1, 3.0)


class TestZetaNorm:
    def test_vector_in_base_span_gives_zero(self):
        design, _ = gaussian_design(30, [2, 2, 2], sigma=1.0, seed=15)
        v = design.X[:, 0] - 0.3 * design.X[:, 1]
        assert zeta_norm(v, 2, [0], design.X, design.groups) <= 1e-10

    def test_all_remaining_groups_single_candidate(self):
        rng = np.random.default_rng(16)
        design, _ = gaussian_design(30, [2, 2], sigma=1.0, seed=16)
        v = rng.standard_normal(30)
        value = zeta_norm(v, 2, [0], design.X, design.groups)
        q, _ = np.linalg.qr(design.X)
        pa = q @ (q.T @ v)
        q0, _ = np.linalg.qr(design.X[:, :2])
        pb = q0 @ (q0.T @ v)
        assert value == pytest.approx(
            np.linalg.norm(pa - pb) / math.sqrt(2 * 30), abs=1e-10
        )

    def test_no_admissible_superset_raises(self):
        design, _ = gaussian_design(30, [2, 2], sigma=1.0, seed=17)
        with pytest.raises(DomainError):
            zeta_norm(np.ones(30), 3, [0], design.X, design.groups)


class TestMonteCarloTheorem1:
    def test_tiny_noise_never_mismatches(self):
        problem = random_problem(100, [2] * 5, support=[0, 1], beta_star=2.0,
                                 sigma=1e-6, seed=18)
        report = monte_carlo_theorem1(problem, lam=0.05, gamma=3.0, reps=20,
                                      seed=18)
        assert not report.condition_violated
        assert report.empirical_prob == 0.0
        assert report.n_nonconverged == 0
        assert report.bound_holds

    def test_condition_violation_flagged_not_fatal(self):
        problem = random_problem(100, [2] * 5, support=[0, 1], beta_star=0.5,
                                 sigma=1.0, seed=19)
        # gamma*lam far above the signal: the zero fit wins, oracle differs
        report = monte_carlo_theorem1(problem, lam=1.0, gamma=3.0, reps=20,
                                      seed=19)
        assert report.condition_violated
        assert not report.conditions["beta_star_gt_gamma_lam"]
        assert report.empirical_prob > 0.5

    def test_bound_holds_in_nontrivial_regime(self):
        # lam small enough that the false-selection component is visibly
        # nonzero (about 0.13): mismatches can genuinely occur, and the
        # empirical rate must still sit under the bound
        problem = random_problem(n=200, group_sizes=[2] * 10, support=[0, 1],
                                 beta_star=2.0, sigma=1.0, seed=42)
        report = monte_carlo_theorem1(problem, lam=0.2, gamma=3.0, reps=500,
                                      seed=43)
        assert not report.condition_violated
        assert 0.05 < report.bound_total < 0.5
        assert report.empirical_prob <= report.bound_total + report.ci99_margin

    def test_multi_start_and_src_mode(self):
        problem = random_problem(120, [2] * 4, support=[0], beta_star=2.5,
                                 sigma=0.5, seed=20)
        c_star, c_sup = src_spectrum(problem.design.X, problem.design.groups,
                                     d_star=4)
        report = monte_carlo_theorem1(problem, lam=0.4, gamma=4.0, reps=10,
                                      seed=20, n_starts=3,
                                      src_bounds=(c_star, c_sup, 4))
        assert report.eta3 >= 0.0
        assert report.bound_total >= report.eta1 + report.eta2
        assert "gamma_ge_src_level" in report.conditions

    @pytest.mark.parametrize("gain,kept_cycles", [(2.0**-52, 1), (1e-9, 2)])
    def test_restarts_tied_in_the_objective_keep_the_first(self, monkeypatch, gain,
                                                           kept_cycles):
        # restarts that reach one minimum differ in the last bits of their
        # objectives: those bits must not choose the kept fit, a real gain must
        from grpsel import theory

        problem = random_problem(100, [2] * 5, support=[0, 1], beta_star=2.0,
                                 sigma=1.0, seed=18)
        solve = theory.fit_gcd_columns

        def tagged(*args, **kwargs):  # start s of every replicate reports s + 1 cycles
            B, iterations, converged = solve(*args, **kwargs)
            return B, np.tile([1, 2], B.shape[1] // 2), converged

        calls = itertools.count()  # objectives are asked for start 0, then start 1
        monkeypatch.setattr(theory, "fit_gcd_columns", tagged)
        monkeypatch.setattr(theory, "objective", lambda *a: 1.0 - gain * (next(calls) % 2))
        report = monte_carlo_theorem1(problem, lam=0.05, gamma=3.0, reps=6, seed=18,
                                      n_starts=2)
        assert report.cycles_median == report.cycles_max == kept_cycles

    @pytest.mark.parametrize("n_starts", [1, 2])
    def test_report_does_not_depend_on_the_block_size(self, monkeypatch, n_starts):
        # the draws follow one stream order and the kept start is chosen per
        # replicate, whichever replicates share a descent; 103 replicates
        # leave a partial last block at every size
        from grpsel import theory

        problem = random_problem(60, [2] * 5, support=[0, 1], beta_star=1.0, sigma=1.0,
                                 seed=21)
        reports = []
        for block in (7, 100, 500):
            monkeypatch.setattr(theory, "_MC_BLOCK", block)
            reports.append(asdict(monte_carlo_theorem1(problem, lam=0.25, gamma=3.0, reps=103,
                                                       seed=22, n_starts=n_starts)))
        assert reports[0]["mismatches"] > 0 and reports[0]["n_nonconverged"] == 0
        assert reports[0] == reports[1] == reports[2]


class TestRunExperiment:
    def test_tail_bound_experiment_passes(self):
        report = run_experiment({"experiment": "tail-bound",
                                 "params": {"draws": 20000, "seed": 0}})
        assert report["pass"] is True
        assert len(report["cases"]) == 12

    def test_unknown_experiment_and_params_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment({"experiment": "nope"})
        with pytest.raises(ConfigError):
            run_experiment({"experiment": "tail-bound", "params": {"bogus": 1}})
        with pytest.raises(ConfigError):
            run_experiment({})

    def test_src_and_zeta_experiments_pass(self):
        src = run_experiment({"experiment": "src", "params": {"seed": 1}})
        assert src["pass"] is True
        zeta = run_experiment({"experiment": "zeta", "params": {"seed": 1}})
        assert zeta["pass"] is True

    def test_irrepresentable_experiment_passes(self):
        rep = run_experiment({"experiment": "irrepresentable",
                              "params": {"problems": 10, "seed": 2}})
        assert rep["pass"] is True
        assert rep["worst_lhs"] <= 1e-12

    @pytest.mark.parametrize("name", ["theorem1", "irrepresentable"])
    def test_support_filling_the_centered_rank_runs(self, name):
        # n = 5 leaves rank 4 after centering: exactly the support's 4 columns
        params = {"n": 5, "reps": 5} if name == "theorem1" else {"n": 5, "problems": 3}
        assert run_experiment({"experiment": name, "params": params})["status"] in (
            "PASS", "FAIL", "CONDITION_VIOLATED")
        with pytest.raises(ConfigError, match="rank 3"):
            run_experiment({"experiment": name, "params": {**params, "n": 4}})

    @pytest.mark.parametrize("params", [
        {"reps": 2.5}, {"seed": 1.5}, {"n": 40.9}, {"reps": True}, {"group_sizes": [2.5, 2]},
    ], ids=["reps_fraction", "seed_fraction", "n_fraction", "reps_bool", "sizes_fraction"])
    def test_integer_parameters_are_not_truncated(self, params, monkeypatch):
        from grpsel import theory

        monkeypatch.setattr(theory, "monte_carlo_theorem1", lambda *a, **k: pytest.fail("ran"))
        with pytest.raises(ConfigError, match=repr(next(iter(params)))):
            run_experiment({"experiment": "theorem1", "params": params})

    def test_integral_float_parameters_are_the_integers(self):
        params = {"n": 40, "group_sizes": [2, 2, 2], "reps": 5, "seed": 2}
        exact = run_experiment({"experiment": "theorem1", "params": params})
        floats = {k: [float(v) for v in value] if isinstance(value, list) else float(value)
                  for k, value in params.items()}
        assert run_experiment({"experiment": "theorem1", "params": floats}) == exact
        assert exact["reps"] == 5

    def test_theorem1_negative_control_reports_condition(self):
        rep = run_experiment({
            "experiment": "theorem1",
            "params": {"n": 80, "beta_star": 0.3, "lam": 0.5, "gamma": 3.0,
                       "reps": 10, "seed": 3},
        })
        assert rep["status"] == "CONDITION_VIOLATED"
        assert rep["pass"] is None


def test_make_oracle_problem_derived_quantities():
    design, _ = gaussian_design(100, [2, 3], sigma=1.0, seed=21)
    coef = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    problem = make_oracle_problem(design, coef, sigma=0.7)
    assert problem.support == (0,)
    assert problem.beta_star == pytest.approx(np.hypot(1, 1) / math.sqrt(2))
    assert problem.c_min <= problem.c1 <= problem.c2
    assert problem.d_min_support() == 2
    assert problem.d_min_null() == 3


def _assert_same_report(got, ref, where):
    if isinstance(ref, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(ref), where
        for key in ref:
            _assert_same_report(got[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), where
        for i, (g, r) in enumerate(zip(got, ref)):
            _assert_same_report(g, r, f"{where}[{i}]")
    elif isinstance(ref, float):
        assert type(got) is float, where
        assert got == ref or abs(got - ref) <= 1e-12 * abs(ref), (where, got, ref)
    else:
        assert type(got) is type(ref) and got == ref, (where, got, ref)


_PINNED = json.loads((pathlib.Path(__file__).parent / "data" / "theory_reports.json").read_text())


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_experiment_reports_match_pinned_values(case):
    # the reports of every experiment, at its defaults and with its other
    # parameters set, as written by the per-branch implementation; a JSON
    # round trip gives the types the verify-theory report file carries
    config, ref = _PINNED[case]["config"], _PINNED[case]["report"]
    got = json.loads(json.dumps(run_experiment(config)))
    _assert_same_report(got, ref, case)
