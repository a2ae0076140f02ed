#!/usr/bin/env python3
"""Shows that no correctness check of the benchmark passes vacuously: each
run perturbs the input of one check (served rows, an alternative's rows,
the data under the ICs, the recovered store) and must report
"correct": false, while an unperturbed run reports true.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute after the build.
"""
import json
import os
import subprocess
import sys

# (perturbation, workload); "" is the unperturbed control.
CASES = [
    ("", "served_small"),
    ("served_rows", "served_small"),       # direct computation + contradiction
    ("alternative_rows", "served_small"),  # alternative equivalence
    ("ic", "served_small"),                # ConstraintChecker after writes
    ("", "durable_churn"),
    ("durability", "durable_churn"),       # acked writes present after reopen
    ("conservation", "durable_churn"),     # extent counts after reopen
    ("recovered_rows", "durable_churn"),   # recovered store answers
]


def main():
    ok = True
    for perturb, workload in CASES:
        command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", "0"]
        if perturb:
            command += ["--perturb", perturb]
        out = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print("FAIL %-18s %-14s exited %d" % (perturb or "(none)", workload, out.returncode))
            ok = False
            continue
        correct = json.loads(out.stdout.strip().splitlines()[-1])["correct"]
        expected = not perturb
        failures = [l for l in out.stderr.splitlines() if "CHECK FAILED" in l]
        verdict = "ok  " if correct == expected else "FAIL"
        ok &= correct == expected
        print("%s %-18s %-14s correct=%-5s %s" % (verdict, perturb or "(none)", workload,
                                                  correct, failures[0][:90] if failures else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
