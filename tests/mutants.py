"""One-line mutants of the library's checks, each of which a named test must kill.

Each entry is (file, old line, new line, test modules, reason): file is
relative to src/, old is one whole line of it, indentation included, that
occurs there exactly once (tests/test_mutants.py), and new replaces it.
tools/run_mutants.py applies each mutant to a copy of src/ and runs only
its test modules; a mutant that passes them all survives, and the gate
fails. No entry is an equivalent mutant: each changes the result on some
input that a named test runs. A change that moves or rewrites a listed
line updates its entry in the same change.
"""

VOLTAGE = "voltlift/voltage.py"
VOLTAGE_TESTS = ("tests/test_voltage.py",)

MUTANTS = [
    # the exact engine's int64 bound and block budget (_residue_powers,
    # _residue_product, _product_terms)
    (VOLTAGE,
     "            power %= mod",
     "            pass",
     VOLTAGE_TESTS,
     "never reducing the power: its entries pass 2^63 - 1 and wrap"),
    (VOLTAGE,
     "        if c * top > _INT64_MAX or (scaled and top >= primes[0]):",
     "        if c * top > 2**64 or (scaled and top >= primes[0]):",
     VOLTAGE_TESTS,
     "reducing only past 2^64: an entry of 2^63 wraps first"),
    (VOLTAGE,
     "        if c * top > _INT64_MAX or (scaled and top >= primes[0]):",
     "        if c * top > 2 * _INT64_MAX or (scaled and top >= primes[0]):",
     VOLTAGE_TESTS,
     "a guard that lets c * top reach 2 * (2^63 - 1): B^64 = 2^63 of the all-ones pair wraps"),
    (VOLTAGE,
     "        if c * top > _INT64_MAX or (scaled and top >= primes[0]):",
     "        if c * top > _INT64_MAX:",
     VOLTAGE_TESTS,
     "no operand reduction before a scaled step: a product of an unreduced entry and a "
     "residue passes 2^63"),
    (VOLTAGE,
     "            part %= mod",
     "            pass",
     VOLTAGE_TESTS,
     "no reduction of a scaled product: c products of two residues pass 2^63"),
    (VOLTAGE,
     "        top = (primes[0] - 1 if scaled else top) * (c if step else 1)",
     "        pass",
     VOLTAGE_TESTS,
     "a bound not tracked: the loop never learns that the next step could overflow"),
    (VOLTAGE,
     "        top = (primes[0] - 1 if scaled else top) * (c if step else 1)",
     "        top = (primes[0] - 1 if scaled else top) * c",
     VOLTAGE_TESTS,
     "the old bound, c after step 1: reductions come earlier than the exact bound needs"),
    (VOLTAGE,
     "    size = max(1, BLOCK_ENTRIES // max(1, r * r * n * len(primes)))",
     "    size = max(1, 64 * BLOCK_ENTRIES // max(1, r * r * n * len(primes)))",
     VOLTAGE_TESTS,
     "a 64x block budget: a full column's gather outgrows the memory test's 20 MiB"),
    # Garner's sign fix: |x| < M / 2, so (M - 1) / 2 is positive
    (VOLTAGE,
     "    return np.where(x > m // 2, x - m, x).astype(object, copy=False)",
     "    return np.where(x >= m // 2, x - m, x).astype(object, copy=False)",
     VOLTAGE_TESTS,
     "the sign fix moved by one: the largest positive value comes back negative"),
    # algebra_matmul's size check
    (VOLTAGE,
     "    if q != b.shape[0]:",
     "    if q > b.shape[0]:",
     VOLTAGE_TESTS,
     "a size check that lets b have more rows than a has columns"),
    # the eigenpair residual bound
    ("voltlift/spectra.py",
     "EIG_RESIDUAL_FACTOR = 1e-8",
     "EIG_RESIDUAL_FACTOR = 1e-2",
     ("tests/test_spectra.py",),
     "a residual bound loose enough to keep a wrong eigenvector column"),
    # the walks oracle
    ("voltlift/cli.py",
     '        payload["oracle_match"] = np.array_equal(rows.reshape(power.shape), power)',
     '        payload["oracle_match"] = True',
     ("tests/test_cli.py",),
     "an oracle that never compares: a wrong walk count exits 0"),
]
