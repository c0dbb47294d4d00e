#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks (checks.py).

Builds synthetic audit outputs that obey the paper's laws, asserts that every
check passes on them, then breaks them one way at a time and asserts that the
matching check fails. A check that cannot fail checks nothing.

    python3 auditbench/selftest.py

Needs no build; exits 0 when every case behaves as expected.
"""

import copy
import math
import random
import struct
import sys

import checks

CLIP = 3.0
STEPS = 30
REPS = 40


def calibrate(epsilon, delta):
    """Noise multiplier z with epsilon_on_grid(k / (2 z^2)) == epsilon."""
    lo, hi = 1e-3, 1e4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if checks.epsilon_on_grid(STEPS / (2 * mid * mid), delta) > epsilon:
            lo = mid
        else:
            hi = mid
    return hi


def synthetic_cell(rng, task, epsilon, mode, delta):
    z = calibrate(epsilon, delta)
    trials = []
    for _ in range(REPS):
        ls = [rng.uniform(0.2, 2 * CLIP) for _ in range(STEPS)]
        sigmas = [z * (l if mode == "LS" else 2 * CLIP) for l in ls]
        log_odds, top = 0.0, 0.5
        llrs = []
        for l, s in zip(ls, sigmas):
            llr = rng.gauss(l * l / (2 * s * s), l / s)
            llrs.append(llr)
            log_odds += llr
            top = max(top, 1 / (1 + math.exp(-log_odds)))
        final = 1 / (1 + math.exp(-log_odds))
        a = checks.gaussian_rdp_sum(sigmas, ls)
        trials.append({"trained_on_d": 1, "says_d": int(final > 0.5),
                       "final_belief": final, "max_belief": top,
                       "eps_sensitivities": checks.epsilon_on_grid(a, delta),
                       "sigmas": sigmas, "ls": ls, "llrs": llrs})
    wins = sum(t["says_d"] for t in trials)
    top = max(t["max_belief"] for t in trials)
    return {"task": task, "epsilon": epsilon, "mode": mode, "delta": delta,
            "clip_norm": CLIP, "noise_multiplier": z, "trained": REPS,
            "replayed": 0,
            "eps_sensitivities": sum(t["eps_sensitivities"]
                                     for t in trials) / REPS,
            "eps_belief": checks.logit(top) if top > 0.5 else 0.0,
            "eps_advantage": checks.epsilon_from_advantage(wins, REPS, delta),
            "trials": trials}


def synthetic_phase(seed):
    rng = random.Random(seed)
    cells = [synthetic_cell(rng, "MNIST", eps, mode, 0.001)
             for eps in (0.08, 1.1, 2.2, 4.6) for mode in ("LS", "GS")]
    return {"name": "fig08", "reps": REPS, "cells": cells}


def replay_phases(base):
    fig09 = copy.deepcopy(base)
    fig09["name"] = "fig09"
    for cell in fig09["cells"]:
        cell["trained"], cell["replayed"] = 0, REPS
    fig10 = copy.deepcopy(base)
    fig10["name"] = "fig10"
    fig10["reps"] = 2 * REPS
    for cell in fig10["cells"]:
        cell["trials"] = cell["trials"] + copy.deepcopy(cell["trials"])
        cell["trained"], cell["replayed"] = REPS, REPS
    return [base, fig09, fig10]


def reruns(phase):
    """One repetition per stream, as auditbench_bin reruns them."""
    cells = phase["cells"]
    out = []
    for rep in range(REPS):
        trial = copy.deepcopy(cells[rep % len(cells)]["trials"][rep])
        trial.update(phase=phase["name"], cell=rep % len(cells), rep=rep,
                     llr=trial.pop("llrs"))
        out.append(trial)
    return out


def ledger_rows(phase):
    rows = [{"row": "manifest", "binary": phase["name"]}]
    for seq, cell in enumerate(phase["cells"]):
        rows.append({"row": "experiment", "seq": seq})
        for rep, t in enumerate(cell["trials"]):
            rows.append({"row": "trial", "rep": rep,
                         "trained_on_d": bool(t["trained_on_d"]),
                         "adversary_says_d": bool(t["says_d"]),
                         "final_belief_d": t["final_belief"],
                         "max_belief_d": t["max_belief"]})
            for s, l, llr in zip(t["sigmas"], t["ls"], t["llrs"]):
                rows.append({"row": "step", "sigma": s,
                             "local_sensitivity": l,
                             "log_density_d": -1000.0 + llr,
                             "log_density_dprime": -1000.0})
    return rows


def flip_low_bit(value):
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]


def phase_failures(phase):
    failures = []
    for check in checks.PHASE_CHECKS:
        failures += check(phase["cells"])
    return failures


def main():
    results = []

    def expect(name, failures, should_fail):
        ok = bool(failures) == should_fail
        results.append(ok)
        verdict = "fails" if failures else "passes"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
              + (f" ({failures[0]})" if failures else ""))

    good = synthetic_phase(1)
    expect("valid audit outputs", phase_failures(good), False)
    for seed in range(2, 6):
        expect(f"valid audit outputs, seed {seed}",
               phase_failures(synthetic_phase(seed)), False)

    broken = copy.deepcopy(good)
    broken["cells"][2]["eps_sensitivities"] *= 1.01
    expect("cell eps' moved by 1%",
           checks.check_sensitivity_epsilons(broken["cells"]), True)
    expect("LS cell eps' moved by 1% (target check)",
           checks.check_targets(broken["cells"]), True)

    for factor in (1.01, 0.99):
        broken = copy.deepcopy(good)
        broken["cells"][4]["trials"][3]["eps_sensitivities"] *= factor
        expect(f"one trial's eps' scaled by {factor}",
               checks.check_sensitivity_epsilons(broken["cells"]), True)

    broken = copy.deepcopy(good)
    broken["cells"][3]["eps_sensitivities"] = broken["cells"][3]["epsilon"]
    expect("GS cell audits to its target",
           checks.check_targets(broken["cells"]), True)

    broken = copy.deepcopy(good)
    broken["cells"][5]["trials"][0]["ls"][7] = 2 * CLIP * 1.001
    expect("LS_i above 2C",
           checks.check_local_sensitivity_bound(broken["cells"]), True)

    result = {"phases": [good], "reruns": reruns(good)}
    expect("valid reruns", checks.check_reruns(result), False)
    broken = copy.deepcopy(result)
    cells = broken["phases"][0]["cells"]
    for rerun in broken["reruns"]:
        rerun["sigmas"] = [2 * s for s in rerun["sigmas"]]
        cells[rerun["cell"]]["trials"][rerun["rep"]]["sigmas"] = rerun["sigmas"]
    expect("rerun and sweep sigmas doubled alike (Lemma 1 per step)",
           checks.check_reruns(broken), True)
    broken = copy.deepcopy(result)
    broken["reruns"][3]["ls"][0] = flip_low_bit(broken["reruns"][3]["ls"][0])
    expect("rerun differs from the sweep in one bit",
           checks.check_reruns(broken), True)
    broken = copy.deepcopy(result)
    broken["reruns"][5]["llr"][4] += 0.01
    expect("final log-odds not the sum of the steps",
           checks.check_reruns(broken), True)

    broken = copy.deepcopy(good)
    broken["cells"][6]["eps_belief"] *= 1.01
    expect("eps' from belief moved by 1%",
           checks.check_belief_epsilons(broken["cells"]), True)

    broken = copy.deepcopy(good)
    trial = broken["cells"][7]["trials"][0]
    trial["says_d"] = 1 - trial["says_d"]
    expect("one trial's decision flipped (advantage eps')",
           checks.check_advantage_epsilons(broken["cells"]), True)

    phases = replay_phases(good)
    expect("valid replay", checks.check_replay(phases), False)
    broken = copy.deepcopy(phases)
    sigmas = broken[1]["cells"][0]["trials"][5]["sigmas"]
    sigmas[11] = flip_low_bit(sigmas[11])
    expect("replayed trial differs in one bit",
           checks.check_replay(broken), True)
    broken = copy.deepcopy(phases)
    broken[2]["cells"][1]["trials"][0]["final_belief"] = flip_low_bit(
        broken[2]["cells"][1]["trials"][0]["final_belief"])
    expect("fig10 prefix differs in one bit", checks.check_replay(broken),
           True)
    broken = copy.deepcopy(phases)
    broken[1]["cells"][2]["trained"] = 1
    expect("fig09 retrained a trial", checks.check_replay(broken), True)

    rows = ledger_rows(good)
    expect("valid ledger steps (Lemma 1 per step)",
           checks.moment_failures(checks.ledger_step_residuals(rows), "steps"),
           False)
    expect("valid ledger matches run",
           checks.check_ledger_matches_run(rows, good), False)
    doubled = copy.deepcopy(rows)
    for row in doubled:
        if row["row"] == "step":
            row["sigma"] *= 2
    expect("ledger step sigma doubled (Lemma 1 per step)",
           checks.moment_failures(checks.ledger_step_residuals(doubled),
                                  "steps"), True)
    expect("ledger step sigma doubled (ledger vs run)",
           checks.check_ledger_matches_run(doubled, good), True)

    result = {"rounds": [{"digest": "a"}, {"digest": "a"}],
              "ledgers": [{"phase": "fig08", "check_ok": True,
                           "message": ""}]}
    expect("rounds agree", checks.check_rounds(result), False)
    expect("CheckLedgerFile passed", checks.check_ledgers(result), False)
    result["rounds"][1]["digest"] = "b"
    result["ledgers"][0].update(check_ok=False, message="digest mismatch")
    expect("rounds disagree", checks.check_rounds(result), True)
    expect("CheckLedgerFile failed", checks.check_ledgers(result), True)

    rng = random.Random(9)
    samples = []
    for layer in ("conv2d(1->4, k=3)", "dense(200->10)"):
        for _ in range(12):
            g = rng.uniform(-1, 1)
            samples.append({"layer": layer, "wrt": "input", "analytic": g,
                            "numeric": g * (1 + rng.uniform(-1e-4, 1e-4))})
    probe = {"samples": samples, "skipped": 2}
    expect("valid finite differences",
           checks.check_finite_differences(probe), False)
    broken = copy.deepcopy(probe)
    broken["samples"][3]["analytic"] *= 1.05
    expect("backward off by 5% on one coordinate",
           checks.check_finite_differences(broken), True)
    broken = copy.deepcopy(probe)
    for s in broken["samples"]:
        if s["layer"].startswith("dense"):
            s["analytic"], s["numeric"] = 0.0, 0.0
    expect("a layer whose samples are all zero",
           checks.check_finite_differences(broken), True)
    broken = copy.deepcopy(probe)
    broken["skipped"] = 100
    expect("most coordinates at kinks",
           checks.check_finite_differences(broken), True)

    print(f"{sum(results)}/{len(results)} self-tests behaved as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
