"""Shows that every correctness check of the benchmark can fail.

    python3 bench/selftest.py

Run from the root of a checkout. Builds small instances with the same op
constructors the workloads use, runs each op, confirms its check passes,
then corrupts the output in one way at a time and confirms the check
rejects it: a perturbed eigenvalue, a wrong multiplicity total, a walk
coefficient off by one, a wrong eigenvector, a CLI exit code of 1 and a
reported mismatch. It also confirms that a failed op adds no time to its
kind. Exits 0 only if every corruption is caught.
"""

import json
import sys
import tempfile

import numpy as np

import checks
import run
import workloads

LIB = run.load_library()
RESULTS = []


def expect(label, check, out, should_pass):
    try:
        check(out)
        passed = True
        reason = "accepted"
    except checks.CheckFailed as exc:
        passed = False
        reason = str(exc)
    ok = passed == should_pass
    RESULTS.append(ok)
    verdict = "ok  " if ok else "FAIL"
    want = "accepted" if should_pass else "rejected"
    print(f"{verdict} {label}: expected {want}; {reason}")


def spectrum_with(entries):
    return LIB.spectra.SpectrumMultiset(entries=tuple(entries))


def edit_output(op, edit):
    """Apply ``edit`` to the JSON output file of a CLI op in place."""
    path = op.out_path
    with open(path) as f:
        payload = json.load(f)
    edit(payload)
    with open(path, "w") as f:
        json.dump(payload, f)


def bump_coefficient(payload):
    entry = next(e for e in payload["entries"] if e["coeffs"])
    name = next(iter(entry["coeffs"]))
    entry["coeffs"][name] += 1


def main():
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_work-") as workdir:
        ctx = workloads._Context(LIB, workdir)
        spec = "dihedral:4"
        g, _, _ = ctx.group(spec)
        volts = workloads.Voltages(7, "selftest")
        plain = ctx.instance(spec, volts.directed(g, workloads.CIRCULANT_6), 6, "p")
        sym = ctx.instance(spec, volts.undirected(g, workloads.K4_PLUS), 4, "s")
        # the CLI ops exactly as cli_exact runs them
        cli_ops = {op.name: op for op in workloads.setup_cli_exact(LIB, 1, workdir).ops}

        # spectrum: perturbed eigenvalue, wrong multiplicity total
        op = workloads._spectrum_op(LIB, "p", plain)
        spectrum = op.run()
        entries = list(spectrum.entries)
        expect("spectrum as computed", op.check, spectrum, True)
        value, mult = entries[0]
        perturbed = [(value + 1e-3, mult)] + entries[1:]
        expect("spectrum, eigenvalue + 1e-3", op.check, spectrum_with(perturbed), False)
        extra = [(value, mult + 1)] + entries[1:]
        expect("spectrum, multiplicity total + 1", op.check, spectrum_with(extra), False)

        # verify (library): wrong total, reported mismatch
        op = workloads._verify_op(LIB, "s", sym)
        total_repr, total_brute, report = op.run()
        expect("verify as computed", op.check, (total_repr, total_brute, report), True)
        expect("verify, multiplicity total + 1", op.check, (total_repr + 1, total_brute, report), False)
        mismatch = LIB.spectra.MatchReport(False, 1.0, report.count_left, report.count_right)
        expect("verify, reported mismatch", op.check, (total_repr, total_brute, mismatch), False)

        # CLI walks: coefficient off by one, exit code 1
        op = cli_ops["walks:k4"]
        code = op.run()
        expect("CLI walks as computed", op.check, code, True)
        edit_output(op, bump_coefficient)
        expect("CLI walks, one coefficient + 1", op.check, code, False)
        expect("CLI walks, exit code 1", op.check, 1, False)

        # CLI verify: exit code 1, reported mismatch
        op = cli_ops["verify:k4"]
        code = op.run()
        expect("CLI verify as computed", op.check, code, True)
        expect("CLI verify, exit code 1", op.check, 1, False)
        edit_output(op, lambda p: p["charsum vs repr"].update(matched=False))
        expect("CLI verify, reported mismatch", op.check, 0, False)

        # CLI spectrum: exit code 1, perturbed eigenvalue, wrong multiplicity
        op = cli_ops["spectrum:k4"]
        code = op.run()
        expect("CLI spectrum as computed", op.check, code, True)
        expect("CLI spectrum, exit code 1", op.check, 1, False)
        edit_output(op, lambda p: p["eigenvalues"][0].update(re=p["eigenvalues"][0]["re"] + 1e-3))
        expect("CLI spectrum, eigenvalue + 1e-3", op.check, 0, False)
        op.run()
        edit_output(op, lambda p: p["eigenvalues"][0].update(mult=p["eigenvalues"][0]["mult"] + 1))
        expect("CLI spectrum, multiplicity total + 1", op.check, 0, False)

        # eigenvectors: wrong vector, wrong eigenvalue, one pair missing
        op = workloads._eigvecs_op(LIB, "s", sym)
        result = op.run()
        expect("eigvecs as computed", op.check, result, True)
        pairs = list(result.pairs)
        mu, w = pairs[0]
        wrong_vec = np.random.default_rng(0).standard_normal(w.shape) + 0j
        for label, bad, skipped in [
            ("eigvecs, random vector", [(mu, wrong_vec)] + pairs[1:], ()),
            ("eigvecs, eigenvalue + 1e-3", [(mu + 1e-3, w)] + pairs[1:], ()),
            ("eigvecs, one pair missing", pairs[1:], ()),
            ("eigvecs, a skipped irrep not accounted for", pairs, (1,)),
        ]:
            expect(label, op.check, LIB.spectra.LiftEigenvectors(
                pairs=tuple(bad), zero_vectors_excluded=result.zero_vectors_excluded,
                skipped_irreps=skipped), False)

    # the runner: a failed check is named and adds no time to its kind
    def bad_check(_):
        raise checks.CheckFailed("always")

    failures = []
    fake = workloads.Op("fake:0", "verify", lambda: None, bad_check)
    passes = [run.run_pass([fake], failures, lambda: 1.0)]
    per_kind = run.kind_times([fake], workloads.KINDS, passes)
    ok = per_kind["verify"] == 0.0 and failures == ["fake:0: CheckFailed: always"] and passes[0][2] == 1
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} runner: failed op recorded as {failures}, time {per_kind['verify']}")

    caught = sum(RESULTS)
    print(f"{caught}/{len(RESULTS)} expectations met")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
