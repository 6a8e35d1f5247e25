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
REPS = "voltlift/reps.py"
GROUPS = "voltlift/groups.py"
SPECTRA = "voltlift/spectra.py"

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
    # the eigenpair residual bound, the defective-basis limit and the
    # Hermitian gate
    (SPECTRA,
     "EIG_RESIDUAL_FACTOR = 1e-8",
     "EIG_RESIDUAL_FACTOR = 1e-2",
     ("tests/test_spectra.py",),
     "a residual bound loose enough to keep a wrong eigenvector column"),
    (SPECTRA,
     "DEFECTIVE_COND_LIMIT = 1e12",
     'DEFECTIVE_COND_LIMIT = float("inf")',
     ("tests/test_spectra.py",),
     "a limit no condition number exceeds: the singular bases of nilpotent images are kept"),
    (SPECTRA,
     "    return skew <= n * n * eps * np.linalg.norm(m, axis=(1, 2))",
     "    return skew <= n * eps * np.linalg.norm(m, axis=(1, 2))",
     ("tests/test_spectra.py",),
     "a gate of N eps, not N^2 eps: a matrix half the bound off Hermitian goes to eig"),
    # the walk that proves each irrep stack (reps._proven_blocks)
    (REPS,
     "        if not np.isfinite(a).all():",
     "        if False:",
     ("tests/test_irrep_validation.py",),
     "no finiteness test: a nan fails no comparison, so a stack holding one is accepted"),
    (REPS,
     '        _reject_first(off > HOM_TOL, at, d, "identity element is not mapped to I")',
     "        pass",
     ("tests/test_irrep_validation.py",),
     "rho(e) = I not checked: a moved identity is refused later, under another message"),
    (REPS,
     "        if err.max() > HOM_TOL:",
     "        if err.max() > 1e3 * HOM_TOL:",
     ("tests/test_irrep_validation.py",),
     "a homomorphism tolerance 1000x too loose: a 1e-9 change at a non-generator passes"),
    (REPS,
     "        nonzero = (total > SUM_TOL * n) & (np.arange(at, at + num) > 0)",
     "        nonzero = (total > SUM_TOL * n) & (np.arange(at, at + num) > 1)",
     ("tests/test_reps.py",),
     "irrep 1 spared the zero-sum test: a second all-ones row gets another message"),
    # validate_irrep_set's norm check and the regular-character test
    (REPS,
     "    if abs(norms[i] - n) > SUM_TOL * n:",
     "    if abs(norms[i] - n) > n:",
     ("tests/test_irrep_validation.py",),
     "a norm tolerance of n: a reducible row, <chi, chi> = 2n, passes the norm check"),
    (REPS,
     "    if np.abs(regular).max() > SUM_TOL * n:",
     "    if np.abs(regular).max() > n:",
     ("tests/test_irrep_validation.py",),
     "a regular-character tolerance of n: a duplicated 2-dim irrep is accepted"),
    # _check_characters' class constancy and the degree >= 2 orthogonality
    (REPS,
     "        off = np.abs(block.take(later, axis=1) - block.take(first, axis=1)) > 1e-9",
     "        off = np.abs(block.take(later, axis=1) - block.take(first, axis=1)) > 1",
     ("tests/test_character_validation.py",),
     "a class-constancy tolerance of 1: rows off by 0.5 on a class get another message"),
    (REPS,
     "    if linear < len(rows):  # never for an abelian group",
     "    if linear > len(rows):  # never for an abelian group",
     ("tests/test_character_validation.py",),
     "no orthogonality test of the degree-2 rows: the mixed dihedral:5 table is accepted"),
    # the Latin-square and associativity checks of a group table
    (GROUPS,
     '            raise GroupError("multiplication table is not a Latin square (bad row)")',
     "            pass",
     ("tests/test_groups.py",),
     "a bad row not raised: the table is refused later, under another message"),
    (GROUPS,
     '            raise GroupError("multiplication table is not a Latin square (bad column)")',
     "            pass",
     ("tests/test_groups.py",),
     "a bad column not raised: the table is refused later, under another message"),
    (GROUPS,
     "            if not np.array_equal(left, right):",
     "            if not np.array_equal(left[:1], right[:1]):",
     ("tests/test_groups.py",),
     "associativity compared on each block's first row only: a failure at x = 1 is missed"),
    # the walks oracle
    ("voltlift/cli.py",
     '        payload["oracle_match"] = np.array_equal(rows.reshape(power.shape), power)',
     '        payload["oracle_match"] = True',
     ("tests/test_cli.py",),
     "an oracle that never compares: a wrong walk count exits 0"),
]
