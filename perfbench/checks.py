"""Output checks, computed apart from the program.

``check(config, doc)`` raises :class:`CheckFailed` when the emitted
document ``doc`` disagrees with the reference model for ``config``.
None of the checks compares against a stored copy of an earlier
output, so they hold for any workload seed.
"""

from __future__ import annotations

import numpy as np

from reference import CheckFailed, Game

TOL = 1e-9
MC_SIGMAS = 4.0


def check(config: dict, doc: dict) -> None:
    if doc.get("config") != config:
        raise CheckFailed("the emitted config differs from the one given")
    kind = config["task"]["kind"]
    _TASK_CHECKS[kind](config, doc["result"])


def _close(got: float, want: float, what: str) -> None:
    if not abs(got - want) <= TOL:
        raise CheckFailed(f"{what}: program {got!r}, reference {want!r}")


def _equilibrium(game: Game, rule: dict, what: str):
    """Decode a rule, check it is a best response to its own law, return
    (steps, cdf, value)."""
    steps = game.decode(rule)
    cdf = game.law(steps)
    rewards = game.mean_field_rewards(cdf)
    value = game.value(steps, rewards)
    gap = game.best_value(rewards) - value
    if abs(gap) > TOL:
        raise CheckFailed(f"{what} is not an equilibrium: best-response gap {gap!r}")
    return steps, cdf, value


def _solve_mfe(config: dict, res: dict) -> None:
    game = Game(config)
    if not res["converged"]:
        raise CheckFailed("solve-mfe did not converge")
    steps = {}
    for end, key in (("top", "value_max"), ("bottom", "value_min")):
        steps[end], _, value = _equilibrium(game, res[end]["rule"], f"the {end} end")
        _close(res[key], value, key)
    if np.any(steps["bottom"] > steps["top"]):
        raise CheckFailed("the bottom end stops later than the top end on some path")


def _eps_nash(config: dict, res: dict) -> None:
    task = config["task"]
    game = Game(config)
    steps, cdf, _ = _equilibrium(game, res["mfe_rule"], "mfe_rule")
    rows = res["reports"]
    if [row["n"] for row in rows] != task["n_list"]:
        raise CheckFailed("reports do not cover n_list")
    exact = task.get("method", "exact") == "exact"
    for row in rows:
        n = row["n"]
        rewards = game.n_player_rewards(cdf, n)
        eq, dev = game.value(steps, rewards), game.best_value(rewards)
        if not row["epsilon"] >= 0.0:
            raise CheckFailed(f"n={n}: negative epsilon {row['epsilon']!r}")
        _close(row["epsilon"], max(0.0, row["best_dev_value"] - row["eq_value"]),
               f"n={n} epsilon")
        if exact:
            _close(row["eq_value"], eq, f"n={n} eq_value")
            _close(row["best_dev_value"], dev, f"n={n} best_dev_value")
            continue
        se = row["stderr"]
        if se is None or not se > 0.0:
            raise CheckFailed(f"n={n}: Monte Carlo stderr {se!r}")
        if abs(row["eq_value"] - eq) > MC_SIGMAS * se:
            raise CheckFailed(f"n={n}: eq_value {row['eq_value']!r} is more than "
                              f"{MC_SIGMAS} stderr from the exact {eq!r}")
        if row["best_dev_value"] > dev + MC_SIGMAS * se:
            raise CheckFailed(f"n={n}: best_dev_value {row['best_dev_value']!r} exceeds "
                              f"the exact best deviation {dev!r} by over {MC_SIGMAS} stderr")


def _converge(config: dict, res: dict) -> None:
    game = Game(config)
    _equilibrium(game, res["mfe_rule"], "mfe_rule")
    rows = res["rows"]
    if [row["n"] for row in rows] != config["task"]["n_list"]:
        raise CheckFailed("rows do not cover n_list")
    d = [row["mean_kolmogorov_distance"] for row in rows]
    if not all(0.0 < x <= 1.0 for x in d):
        raise CheckFailed(f"distances outside (0, 1]: {d}")
    steady = sum(b <= a for a, b in zip(d, d[1:]))
    if steady < len(d) - 2:
        raise CheckFailed(f"distance rises in more than one step: {d}")
    if not d[-1] < 0.5 * d[0]:
        raise CheckFailed(f"d(n={rows[-1]['n']}) is not below half of d(n={rows[0]['n']}): {d}")


def _check(config: dict, res: dict) -> None:
    task = config["task"]
    rep = res["increasing_differences"]
    violation = rep.get("violation")
    if violation is not None:
        if rep["passed"] or not 1 <= rep["trials"] <= task["trials"]:
            raise CheckFailed("a violation is reported with passed/trials inconsistent")
        _reverify(Game(config), violation)
    elif config["payoff"]["kind"] == "crowd_fraction":
        raise CheckFailed(f"negative control: crowd_fraction reported no violation "
                          f"in {rep['trials']} trials")
    elif not rep["passed"] or rep["trials"] != task["trials"]:
        raise CheckFailed(f"passed with {rep['trials']} of {task['trials']} trials run")
    pairs = task.get("submartingale_pairs", 0)
    if pairs:
        sub = res.get("submartingale")
        if sub is None or sub["pairs"] != pairs:
            raise CheckFailed("submartingale pairs missing")
        if not sub["worst_gap"] >= -TOL:
            # the output carries no measures, so a violation cannot be re-verified
            raise CheckFailed(f"submartingale worst_gap {sub['worst_gap']!r} "
                              f"cannot be re-verified")
        if not sub["passed"]:
            raise CheckFailed("submartingale reports failure with worst_gap >= -tol")


def _reverify(game: Game, v: dict) -> None:
    """An increasing-differences violation must hold by the reference J."""
    mu = np.asarray(v["mu_cdf"]["cdf"], dtype=float)
    mu_tilde = np.asarray(v["mu_tilde_cdf"]["cdf"], dtype=float)
    if mu.shape != (1 << game.K, game.K + 1) or mu_tilde.shape != mu.shape:
        raise CheckFailed("violation measures have the wrong shape")
    if not np.all(mu_tilde <= mu):
        raise CheckFailed("violation measures are not ordered")
    tau, tau_tilde = game.decode(v["tau"]), game.decode(v["tau_tilde"])
    if not np.all(tau <= tau_tilde):
        raise CheckFailed("violation rules are not ordered")

    def J(cdf, steps):
        return game.value(steps, game.mean_field_rewards(cdf))

    lhs = J(mu_tilde, tau_tilde) - J(mu_tilde, tau)
    rhs = J(mu, tau_tilde) - J(mu, tau)
    _close(v["lhs"], lhs, "violation lhs")
    _close(v["rhs"], rhs, "violation rhs")
    if not lhs < rhs - TOL:
        raise CheckFailed(f"violation does not hold: lhs {lhs!r}, rhs {rhs!r}")


_TASK_CHECKS = {
    "solve-mfe": _solve_mfe,
    "eps-nash": _eps_nash,
    "converge": _converge,
    "check": _check,
}
