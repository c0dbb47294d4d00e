"""Independent correctness checks for the audit benchmark.

Every check recomputes what the program reports from the raw observables it
recorded (per-step noise sigma_i and local sensitivity LS_i, beliefs, wins),
with formulas written here from the paper rather than calls into the
program. Each check returns a list of failure messages; an empty list means
the check passed. selftest.py feeds every check broken inputs and asserts
that it fails.
"""

import json
import math
import struct
from statistics import NormalDist

# Orders of the RDP accountant's default grid (dp/rdp_accountant.cc). The
# program minimises over these orders; the continuous optimum over all
# alpha > 1 is the closed form below, so the program's epsilon' must lie
# between the two.
ORDERS = [1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 7.0,
          8.0, 9.0, 10.0, 12.0, 14.0, 16.0, 20.0, 24.0, 28.0, 32.0, 48.0,
          64.0, 128.0, 256.0, 512.0] + [float(a) for a in range(11, 64)]

# Moments of standardised residuals must sit within this many standard
# errors of N(0, 1): a false alarm is a 5-sigma event for either moment.
MOMENT_SIGMAS = 5.0


def gaussian_rdp_sum(sigmas, ls):
    """A = sum_i LS_i^2 / (2 sigma_i^2): the Gaussian RDP per unit order."""
    return sum(l * l / (2.0 * s * s) for s, l in zip(sigmas, ls) if l > 0.0)


def epsilon_closed_form(a, delta):
    """min over alpha > 1 of alpha*A + ln(1/delta)/(alpha - 1)."""
    if a == 0.0:
        return 0.0
    return a + 2.0 * math.sqrt(a * math.log(1.0 / delta))


def epsilon_on_grid(a, delta):
    if a == 0.0:
        return 0.0
    log_inv_delta = math.log(1.0 / delta)
    return min(alpha * a + log_inv_delta / (alpha - 1.0) for alpha in ORDERS)


def logit(p):
    return math.log(p) - math.log1p(-p)


def epsilon_from_advantage(wins, trials, delta):
    """Inverse of Theorem 2 on the empirical advantage 2*wins/trials - 1."""
    advantage = 2.0 * wins / trials - 1.0
    if advantage <= 0.0:
        return 0.0
    if advantage >= 1.0:
        return math.inf
    factor = math.sqrt(2.0 * math.log(1.25 / delta))
    return 2.0 * factor * NormalDist().inv_cdf((advantage + 1.0) / 2.0)


def close(a, b, rel, abs_tol=0.0):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= abs_tol + rel * max(abs(a), abs(b))


def moment_failures(residuals, label):
    n = len(residuals)
    if n < 8:
        return [f"{label}: only {n} residuals, too few to test"]
    mean = sum(residuals) / n
    var = sum((r - mean) ** 2 for r in residuals) / (n - 1)
    mean_bound = MOMENT_SIGMAS / math.sqrt(n)
    var_bound = MOMENT_SIGMAS * math.sqrt(2.0 / (n - 1))
    failures = []
    if abs(mean) > mean_bound:
        failures.append(f"{label}: residual mean {mean:.4f} outside "
                        f"+-{mean_bound:.4f} (n={n})")
    if abs(var - 1.0) > var_bound:
        failures.append(f"{label}: residual variance {var:.4f} outside "
                        f"1+-{var_bound:.4f} (n={n})")
    return failures


# ---------------------------------------------------------------------------
# Checks over the audit outputs of one phase (a list of cells).

def check_sensitivity_epsilons(cells):
    """Per trial: closed form <= program <= grid optimum; per cell: the
    reported epsilon' is the mean of the per-trial values."""
    failures = []
    for cell in cells:
        delta = cell["delta"]
        values = []
        for rep, trial in enumerate(cell["trials"]):
            a = gaussian_rdp_sum(trial["sigmas"], trial["ls"])
            lower = epsilon_closed_form(a, delta)
            upper = epsilon_on_grid(a, delta)
            got = trial["eps_sensitivities"]
            values.append(got)
            if got < lower * (1.0 - 1e-12):
                failures.append(
                    f"{cell_label(cell)} rep {rep}: eps' {got!r} below the "
                    f"closed-form Gaussian RDP bound {lower!r}")
            if got > upper * (1.0 + 1e-9):
                failures.append(
                    f"{cell_label(cell)} rep {rep}: eps' {got!r} above the "
                    f"order-grid optimum {upper!r}")
        if values and not close(cell["eps_sensitivities"],
                                sum(values) / len(values), 1e-12):
            failures.append(f"{cell_label(cell)}: reported eps' "
                            f"{cell['eps_sensitivities']!r} is not the mean "
                            "of its trials' values")
    return failures


def check_targets(cells):
    """LS cells audit to their target epsilon; GS cells audit below it."""
    failures = []
    for cell in cells:
        got, target = cell["eps_sensitivities"], cell["epsilon"]
        if cell["mode"] == "LS":
            if not close(got, target, 1e-6):
                failures.append(f"{cell_label(cell)}: LS cell audits to "
                                f"{got!r}, not its target {target}")
        elif not got < target:
            failures.append(f"{cell_label(cell)}: GS cell audits to {got!r}, "
                            f"not below its target {target}")
    return failures


def check_local_sensitivity_bound(cells):
    """Bounded DP: replacing one record moves the clipped sum by <= 2C."""
    failures = []
    for cell in cells:
        bound = 2.0 * cell["clip_norm"]
        for rep, trial in enumerate(cell["trials"]):
            worst = max(trial["ls"], default=0.0)
            if worst > bound * (1.0 + 1e-9):
                failures.append(f"{cell_label(cell)} rep {rep}: LS_i {worst!r}"
                                f" above 2C = {bound}")
    return failures


def check_belief_epsilons(cells):
    """epsilon' from belief = logit of the largest belief in D (0 at or
    below the prior)."""
    failures = []
    for cell in cells:
        top = max(t["max_belief"] for t in cell["trials"])
        want = logit(top) if top > 0.5 else 0.0
        if not close(cell["eps_belief"], want, 1e-9, 1e-15):
            failures.append(f"{cell_label(cell)}: eps' from belief "
                            f"{cell['eps_belief']!r}, recomputed {want!r}")
    return failures


def check_advantage_epsilons(cells):
    failures = []
    for cell in cells:
        trials = cell["trials"]
        wins = sum(1 for t in trials if bool(t["says_d"]) ==
                   bool(t["trained_on_d"]))
        want = epsilon_from_advantage(wins, len(trials), cell["delta"])
        if not close(cell["eps_advantage"], want, 1e-7, 1e-12):
            failures.append(f"{cell_label(cell)}: eps' from advantage "
                            f"{cell['eps_advantage']!r}, recomputed {want!r} "
                            f"from {wins}/{len(trials)} wins")
    return failures


def cell_label(cell):
    return f"{cell['task']} eps={cell['epsilon']} {cell['mode']}"


PHASE_CHECKS = [check_sensitivity_epsilons, check_targets,
                check_local_sensitivity_bound, check_belief_epsilons,
                check_advantage_epsilons]


# ---------------------------------------------------------------------------
# Lemma 1 under the Gaussian mechanism. Per step, the log-likelihood ratio
# log p_D(r) - log p_D'(r) is N(+-LS^2/(2 sigma^2), LS^2/sigma^2), sign +
# when trained on D, and the final belief's log-odds is the prior's plus the
# sum of the steps. Every cell of a sweep uses the same seed, so repetition
# r draws the same noise in every cell: residuals are taken from one cell
# per repetition (cell r mod cells), which keeps them independent.

def step_residual(llr, ls, sigma, trained_on_d):
    sign = 1.0 if trained_on_d else -1.0
    return (llr - sign * ls * ls / (2.0 * sigma * sigma)) / (ls / sigma)


def check_reruns(result, prior=0.5):
    """Trials rerun outside the sweep equal the sweep's, follow Lemma 1 per
    step, and their final log-odds are the sum of their steps."""
    phases = {p["name"]: p for p in result["phases"]}
    failures = []
    residuals = []
    for rerun in result["reruns"]:
        cell = phases[rerun["phase"]]["cells"][rerun["cell"]]
        label = f"{rerun['phase']} {cell_label(cell)} rep {rerun['rep']}"
        if trial_bits(rerun) != trial_bits(cell["trials"][rerun["rep"]]):
            failures.append(f"{label}: rerun outside the sweep differs from "
                            "the sweep's trial")
        log_odds = logit(rerun["final_belief"]) - logit(prior)
        total = sum(rerun["llr"])
        scale = 1.0 + sum(abs(v) for v in rerun["llr"])
        if not close(log_odds, total, 0.0, 1e-9 * scale):
            failures.append(f"{label}: final log-odds {log_odds!r} is not the "
                            f"sum of the step log-likelihood ratios {total!r}")
        for llr, ls, sigma in zip(rerun["llr"], rerun["ls"], rerun["sigmas"]):
            if ls > 0.0:
                residuals.append(step_residual(llr, ls, sigma,
                                               rerun["trained_on_d"]))
    return failures + moment_failures(residuals, "Lemma 1 per step (reruns)")


# ---------------------------------------------------------------------------
# Trace-cache replay and the ledger (the persistent workload).

def bits(value):
    return struct.pack("<d", float(value))


def trial_bits(trial):
    return (bool(trial["trained_on_d"]), bool(trial["says_d"]),
            bits(trial["final_belief"]), bits(trial["max_belief"]),
            tuple(bits(v) for v in trial["sigmas"]),
            tuple(bits(v) for v in trial["ls"]))


def check_replay(phases):
    """fig09 replays fig08 bit for bit; fig10's first repetitions are
    fig08's, replayed from the cache, and the rest are trained."""
    by_name = {p["name"]: p for p in phases}
    base = by_name["fig08"]
    failures = []
    for name in ("fig09", "fig10"):
        other = by_name[name]
        for cell, again in zip(base["cells"], other["cells"]):
            label = f"{name} {cell_label(cell)}"
            prefix = again["trials"][:len(cell["trials"])]
            if [trial_bits(t) for t in prefix] != [trial_bits(t)
                                                  for t in cell["trials"]]:
                failures.append(f"{label}: replayed trials differ from fig08")
            if again["replayed"] != len(cell["trials"]):
                failures.append(f"{label}: {again['replayed']} trials "
                                f"replayed, want {len(cell['trials'])}")
            if again["trained"] != other["reps"] - len(cell["trials"]):
                failures.append(f"{label}: {again['trained']} trials trained")
            if name == "fig09" and any(
                    bits(cell[k]) != bits(again[k]) for k in
                    ("eps_sensitivities", "eps_belief", "eps_advantage")):
                failures.append(f"{label}: replayed audit differs from fig08")
    return failures


def read_ledger(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def ledger_step_residuals(rows):
    """Lemma 1 per step on a ledger's step rows, one cell per repetition."""
    cells = sum(1 for row in rows if row["row"] == "experiment")
    residuals = []
    block = -1
    keep = False
    trained_on_d = True
    for row in rows:
        if row["row"] == "experiment":
            block += 1
        elif row["row"] == "trial":
            trained_on_d = row["trained_on_d"]
            keep = row["rep"] % cells == block
        elif row["row"] == "step" and keep and row["local_sensitivity"] > 0.0:
            residuals.append(step_residual(
                row["log_density_d"] - row["log_density_dprime"],
                row["local_sensitivity"], row["sigma"], trained_on_d))
    return residuals


def check_ledger_matches_run(rows, phase):
    """The ledger's trial and step rows are the run's trials, bit for bit,
    one experiment block per cell in grid order."""
    blocks = []
    for row in rows:
        if row["row"] == "experiment":
            blocks.append([])
        elif row["row"] == "trial":
            blocks[-1].append({"trained_on_d": row["trained_on_d"],
                               "says_d": row["adversary_says_d"],
                               "final_belief": row["final_belief_d"],
                               "max_belief": row["max_belief_d"],
                               "sigmas": [], "ls": []})
        elif row["row"] == "step":
            blocks[-1][-1]["sigmas"].append(row["sigma"])
            blocks[-1][-1]["ls"].append(row["local_sensitivity"])
    cells = phase["cells"]
    if len(blocks) != len(cells):
        return [f"{phase['name']} ledger: {len(blocks)} experiment blocks for "
                f"{len(cells)} cells"]
    failures = []
    for block, cell in zip(blocks, cells):
        if [trial_bits(t) for t in block] != [trial_bits(t)
                                              for t in cell["trials"]]:
            failures.append(f"{phase['name']} ledger: {cell_label(cell)} rows "
                            "differ from the run's trials")
    return failures


def check_ledgers(result):
    failures = []
    for ledger in result["ledgers"]:
        if not ledger["check_ok"]:
            failures.append(f"CheckLedgerFile failed on {ledger['phase']}: "
                            f"{ledger['message']}")
    return failures


def check_persistent_ledgers(result):
    """Per-step Lemma 1, run/ledger agreement, and replay parity of the
    ledgers the persistent workload writes."""
    phases = {p["name"]: p for p in result["phases"]}
    paths = {l["phase"]: l["path"] for l in result["ledgers"]}
    rows = {name: read_ledger(path) for name, path in paths.items()}
    failures = []
    failures += moment_failures(ledger_step_residuals(rows["fig08"]),
                                "Lemma 1 per step (fig08 ledger)")
    for name, phase_rows in rows.items():
        failures += check_ledger_matches_run(phase_rows, phases[name])
    if rows["fig08"][1:] != rows["fig09"][1:]:
        failures.append("fig09 ledger rows differ from fig08's (replay "
                        "parity)")
    return failures


# ---------------------------------------------------------------------------
# Layer probe.

def check_finite_differences(probe, rel=5e-3, scale_rel=2e-3):
    """Backward passes agree with central differences of the forward pass.
    The absolute slack scales with the largest gradient sampled on the same
    layer, so a layer with small gradients is held to its own scale."""
    samples = probe["samples"]
    failures = []
    scale = {}
    for s in samples:
        scale[s["layer"]] = max(scale.get(s["layer"], 0.0), abs(s["analytic"]),
                                abs(s["numeric"]))
    for s in samples:
        slack = scale_rel * scale[s["layer"]]
        if not close(s["analytic"], s["numeric"], rel, slack):
            failures.append(f"{s['layer']} d/d{s['wrt']}: backward "
                            f"{s['analytic']!r}, finite difference "
                            f"{s['numeric']!r}")
    nonzero = {s["layer"] for s in samples if abs(s["numeric"]) > 0.0}
    for layer in scale:
        if layer not in nonzero:
            failures.append(f"{layer}: no sampled coordinate had a nonzero "
                            "gradient, so nothing was checked")
    if probe["skipped"] > len(samples):
        failures.append(f"{probe['skipped']} of "
                        f"{probe['skipped'] + len(samples)} coordinates sat "
                        "at kinks of the forward pass")
    return failures


def check_rounds(result):
    """Every round of the same inputs gives the same audit bits."""
    digests = {r["digest"] for r in result["rounds"]}
    if len(digests) != 1:
        return [f"rounds disagree: {sorted(digests)}"]
    return []


def run_all(result, persistent):
    """All checks that apply to a benchmark result; returns failures."""
    failures = (check_rounds(result) + check_ledgers(result) +
                check_reruns(result))
    for phase in result["phases"]:
        for check in PHASE_CHECKS:
            failures += [f"{phase['name']}: {m}" for m in check(phase["cells"])]
    if persistent:
        failures += check_replay(result["phases"])
        failures += check_persistent_ledgers(result)
    if "finite_differences" in result:
        failures += check_finite_differences(result["finite_differences"])
    return failures
