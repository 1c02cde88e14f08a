"""End-to-end acceptance checks.

Each test certifies one headline behavior of the workbench on frozen
inputs with pinned tolerances, and prints a one-line PASS summary so a
full run reads as a checklist.
"""

import json
import subprocess
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qchar.characterizers import (
    HeydeInstance,
    KBInstance,
    heyde_conclude,
    heyde_condition,
    heyde_symmetry_residual,
    kb_equation_residual,
    kb_factorize,
    symmetry_witness,
)
from qchar.circle import (
    EvenPolynomial,
    density_grid,
    exp_poly_distribution,
    gate_sum,
    gaussian_distribution,
    sum_difference_joint,
)
from qchar.cli import canonical_json
from qchar.elimination import EliminationProblem, run_heyde_chain, run_pexider_chain
from qchar.errors import (
    ConstructionRejectedError,
    HypothesisError,
    KernelConditionError,
    PremiseError,
)
from qchar.groups import (
    Automorphism,
    FiniteAbelianGroup,
    Subgroup,
    all_subgroups,
    annihilator,
    groups_up_to_order,
)
from qchar.measures import (
    Distribution,
    JointDistribution,
    char_fn,
    convolve,
    haar,
    haar_cf,
    inverse_char_fn,
    product_joint,
    random_distribution,
    shifted_haar,
)
from qchar.polynomials import IntegerWindow, WindowFunction, quadratic_check, tabulate
from qchar.scenarios import make_rng, run_scenario, run_sweep
from qchar.witnesses import extract_q_witness

DATA = Path(__file__).parent / "data"


def test_01_duality_and_transform_exactness():
    """Annihilator duality and transform identities on every small group."""
    groups = groups_up_to_order(32)
    assert len(groups) == 77
    pair_count = 0
    for g in groups:
        rng = make_rng(100 + g.order * 131 + len(g.orders))
        for s in all_subgroups(g):
            a = annihilator(g, s)
            assert s.order * a.order == g.order
            back = annihilator(g, a)
            assert set(back.elements) == set(s.elements)
            two_routes = np.abs(
                np.asarray(haar_cf(s).values) - np.asarray(char_fn(haar(s)).values)
            ).max()
            assert two_routes <= 1e-12
        for _ in range(100):
            d1 = random_distribution(g, rng)
            d2 = random_distribution(g, rng)
            round_trip = np.abs(inverse_char_fn(char_fn(d1)).probs - d1.probs).max()
            assert round_trip <= 1e-12
            conv = np.abs(
                np.asarray(char_fn(convolve(d1, d2)).values)
                - np.asarray(char_fn(d1).values) * np.asarray(char_fn(d2).values)
            ).max()
            assert conv <= 1e-12
            pair_count += 1
    print(f"\nPASS 01: duality and transform identities on {len(groups)} groups, "
          f"{pair_count} seeded pairs, all within 1e-12")


def test_02_independence_collapse_sweep():
    """Witness extraction agrees with ground truth across seeded joints."""
    rep = run_sweep("independence-collapse", seed=7, count=200, max_order=12)
    assert rep["details"]["cases"] == 200 * 11 * 2
    assert rep["details"]["failures"] == []

    # same contract on the non-cyclic signatures the sweep does not visit
    extra_cases = 0
    for g in groups_up_to_order(12):
        if len(g.orders) == 1:
            continue
        rng = make_rng(5000 + g.order * 17 + len(g.orders))
        for arity in (2, 3):
            for i in range(50):
                if i % 2 == 0:
                    joint = product_joint(
                        [random_distribution(g, rng) for _ in range(arity)]
                    )
                    expected_product = True
                else:
                    probs = rng.random(g.order**arity) + 1e-3
                    joint = JointDistribution((g,) * arity, probs / probs.sum())
                    gap = np.abs(
                        np.asarray(joint.joint_cf().values) - joint.marginal_cf_product()
                    ).max()
                    assert gap > 1e-6  # seeded draws are genuinely dependent
                    expected_product = False
                witness = extract_q_witness(joint)
                assert (witness is not None) == expected_product
                if witness is not None:
                    assert np.abs(np.asarray(witness.q.values)).max(initial=0.0) == 0.0
                extra_cases += 1
    print(f"\nPASS 02: {rep['details']['cases']} cyclic sweep cases and "
          f"{extra_cases} non-cyclic cases, extraction matches ground truth with "
          f"zero false witnesses")


def test_03_quartic_spectrum_circle_law():
    """Fourth-power spectral decay builds a dependent-but-collapsing pair."""
    quartic = EvenPolynomial({4: 1.0})
    total, tail, _ = gate_sum(quartic)
    assert total == pytest.approx(1.7357591074132341, abs=1e-5)
    assert total + tail < 2.0

    slow = EvenPolynomial({2: 0.01})
    with pytest.raises(ConstructionRejectedError) as err:
        exp_poly_distribution(slow)
    assert err.value.computed_sum == pytest.approx(17.724538509055144, rel=1e-9)

    dist = exp_poly_distribution(quartic, min_truncation=12)
    _, density = density_grid(dist)
    assert float(density.min()) > 0.0
    assert float(density.min()) == pytest.approx(0.2642413427274648, abs=1e-9)

    sj = sum_difference_joint(dist, dist, radius=6)
    w = extract_q_witness(sj)
    assert w is not None
    assert w.coefficients[(2, 2)] == pytest.approx(-12.0, abs=1e-8)
    for exps, c in w.coefficients.items():
        if exps not in ((2, 2), (0, 0)):
            assert abs(c) < 1e-8
    assert w.evaluate((1, 1)) == pytest.approx(-12.0, abs=1e-8)
    defect = float(np.abs(np.exp(np.asarray(w.q.values)) - 1.0).max())
    assert defect > 0.1
    print(f"\nPASS 03: gate sum {total:.10f}, density min {float(density.min()):.10f}, "
          f"witness -12 u^2 v^2, product defect {defect:.3f}")


def test_04_gaussian_pair_dichotomy():
    """Sum/difference witness is 2(s2-s1)uv, vanishing iff scales match."""
    sigmas = (0.5, 1.0, 2.0)
    checked = 0
    for s1 in sigmas:
        for s2 in sigmas:
            d1 = gaussian_distribution(0.0, s1, min_truncation=12)
            d2 = gaussian_distribution(0.0, s2, min_truncation=12)
            w = extract_q_witness(sum_difference_joint(d1, d2, radius=6))
            assert w is not None
            c = w.coefficients.get((1, 1), 0.0)
            assert c == pytest.approx(2 * (s2 - s1), abs=1e-8)
            off = max(
                (abs(v) for k, v in w.coefficients.items() if k not in ((1, 1), (0, 0))),
                default=0.0,
            )
            assert off < 1e-8
            if s1 == s2:
                assert w.degree == 0
            else:
                assert w.degree == 2
            checked += 1
    print(f"\nPASS 04: all {checked} scale pairs give witness 2(s2-s1)uv within 1e-8, "
          f"zero exactly on the diagonal")


def test_05_negation_mixing_needs_no_structure():
    """With negation mixing, any iid pair is symmetric: certified refusal."""
    for n in (5, 7, 9, 15):
        g = FiniteAbelianGroup((n,))
        raw = np.arange(2, n + 2, dtype=float)
        d = Distribution(g, raw / raw.sum())
        assert len(d.support()) == n  # nondegenerate by construction
        neg = Automorphism.multiplication(g, n - 1)
        inst = HeydeInstance(g, product_joint([d, d]), neg)
        assert heyde_symmetry_residual(inst) < 1e-12
        w = symmetry_witness(inst)
        assert w is not None and w.residual < 1e-15
        ok, kernel_el = heyde_condition(g, neg)
        assert not ok and kernel_el is not None
        with pytest.raises(KernelConditionError) as err:
            heyde_conclude(inst)
        assert err.value.kernel_element is not None
        assert "identically distributed" in (err.value.hint or "")
    print("\nPASS 05: negation mixing on Z5 Z7 Z9 Z15 passes symmetry for iid "
          "nondegenerate pairs yet is refused with a kernel certificate")


def test_06_exhaustive_rational_grid_symmetry():
    """Only matched point masses satisfy the doubling symmetry on Z5."""
    g = FiniteAbelianGroup((5,))
    alpha = Automorphism.multiplication(g, 2)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for k in range(total + 1):
            for rest in compositions(total - k, parts - 1):
                yield (k,) + rest

    grid = set()
    for den in range(1, 7):
        for comp in compositions(den, 5):
            grid.add(tuple(Fraction(k, den) for k in comp))
    assert len(grid) == 386

    kept, cfs = [], []
    for probs in sorted(grid):
        vec = np.array([float(p) for p in probs])
        f = np.asarray(char_fn(Distribution(g, vec)).values)
        if np.abs(f).min() > 1e-9:
            kept.append(probs)
            cfs.append(f)
    assert len(kept) == 385  # only the uniform law vanishes somewhere

    # independent-pair symmetry residual, vectorized over the whole grid
    u, v = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
    lhs_a, lhs_b = (u + v) % 5, (u + 2 * v) % 5
    rhs_a, rhs_b = (u - v) % 5, (u - 2 * v) % 5
    mat = np.array(cfs)
    passers = []
    for i in range(len(kept)):
        res = np.abs(
            mat[i][lhs_a][None] * mat[:, lhs_b] - mat[i][rhs_a][None] * mat[:, rhs_b]
        ).max(axis=(1, 2))
        for j in np.where(res < 1e-9)[0]:
            passers.append((kept[i], kept[int(j)]))

    found = set()
    for p1, p2 in passers:
        x1 = [k for k, p in enumerate(p1) if p != 0]
        x2 = [k for k, p in enumerate(p2) if p != 0]
        assert len(x1) == 1 and len(x2) == 1  # every passer is a point-mass pair
        found.add((x1[0], x2[0]))
    assert found == {(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)}
    assert found == {(a, b) for a in range(5) for b in range(5) if (a + 2 * b) % 5 == 0}

    # certify each passer through the full pipeline
    for x1, x2 in sorted(found):
        joint = product_joint([
            Distribution(g, np.eye(5)[x1]), Distribution(g, np.eye(5)[x2]),
        ])
        inst = HeydeInstance(g, joint, alpha)
        assert heyde_symmetry_residual(inst) < 1e-12
        out = heyde_conclude(inst)
        assert [tuple(vd["point"]) for vd in out.verdicts] == [(x1,), (x2,)]
    print(f"\nPASS 06: {len(kept) ** 2} independent pairs from a {len(kept)}-law "
          f"rational grid scanned; exactly the 5 matched point-mass pairs pass "
          f"and each is certified")


def test_07_sum_difference_coset_factorization():
    """Shifted-uniform pair on Z6 factorizes; Z4 analogue is rejected."""
    g6 = FiniteAbelianGroup((6,))
    w = Subgroup.from_generators(g6, [(2,)])
    mu1 = shifted_haar(g6, (1,), w)
    mu2 = shifted_haar(g6, (5,), w)
    inst = KBInstance(g6, char_fn(mu1), char_fn(mu2))
    resid = kb_equation_residual(inst)
    assert resid < 1e-12
    out = kb_factorize(inst)
    assert set(out.annihilator_subgroup.coords_list()) == {(0,), (2,), (4,)}
    for (shift, part), mu in zip(out.factors, (mu1, mu2)):
        assert set(part.elements) == set(w.elements)
        rebuilt = shifted_haar(g6, shift.coords, part)
        assert np.abs(rebuilt.probs - mu.probs).max() <= 1e-12
    assert out.shift_relation["holds"]

    g4 = FiniteAbelianGroup((4,))
    w4 = Subgroup.from_generators(g4, [(2,)])
    bad = KBInstance(g4, char_fn(shifted_haar(g4, (1,), w4)),
                     char_fn(shifted_haar(g4, (0,), w4)))
    with pytest.raises(HypothesisError) as err:
        kb_factorize(bad)
    assert err.value.residual > 1e-3
    print(f"\nPASS 07: Z6 pair factorizes through the order-3 subgroup "
          f"(residual {resid:.2e}) and the Z4 analogue is rejected with "
          f"residual {err.value.residual:.2f}")


def _poly_window(coeffs, radius):
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    vals = np.zeros_like(x)
    for k, c in enumerate(coeffs):
        vals += float(c) * x**k
    return WindowFunction(IntegerWindow(radius, 1), vals)


def _scaled_coeffs(coeffs, mult):
    return [c * mult**k for k, c in enumerate(coeffs)]


def _poly_value(coeffs, x):
    return sum(c * x**k for k, c in enumerate(coeffs))


def _random_coeffs(rng):
    deg = int(rng.integers(0, 5))
    c = [int(rng.integers(-3, 4)) for _ in range(deg + 1)]
    if deg > 0 and c[-1] == 0:
        c[-1] = 1
    return c


def test_08_elimination_chains_on_seeded_instances():
    """Seeded integer chains finish with residual exactly zero; perturbed
    copies with frozen targets are rejected."""
    rng = make_rng(808)
    exact = 0

    # distinct-coefficient chains: lattice windows
    for i in range(13):
        n = 2 + i % 2
        bs = ([1, -1], [1, -1, 2])[n - 2]
        coeffs = [_random_coeffs(rng) for _ in range(n)]
        l = max(len(c) - 1 for c in coeffs)
        terms = [(_poly_window(c, 160), b) for c, b in zip(coeffs, bs)]
        tr = run_pexider_chain(EliminationProblem(terms=terms, r_degree=l))
        assert (tr.premise_residual, tr.annihilation_residual,
                tr.collapse_residual, tr.direct_residual) == (0.0, 0.0, 0.0, 0.0)
        assert tr.certified_order == l + n + 2
        assert tr.degree_bound_ok and tr.p_degree <= l
        exact += 1

    # distinct-coefficient chains: finite groups (constants are the only
    # polynomials there)
    for i in range(12):
        order = (5, 7, 9, 11)[i % 4]
        g = FiniteAbelianGroup((order,))
        n = 2 + i % 2
        ms, seen = [], set()
        while len(ms) < n:
            m = int(rng.integers(1, order))
            if np.gcd(m, order) == 1 and m not in seen:
                seen.add(m)
                ms.append(m)
        terms = [
            (tabulate_const(g, float(rng.normal())), Automorphism.multiplication(g, m))
            for m in ms
        ]
        tr = run_pexider_chain(EliminationProblem(terms=terms, r_degree=0))
        assert (tr.premise_residual, tr.collapse_residual, tr.direct_residual) == (0.0, 0.0, 0.0)
        assert len(tr.sweep) == order - 1
        assert tr.degree_bound_ok and tr.p_degree == 0
        exact += 1

    # doubling chains: windows then groups
    for i in range(13):
        b = (1, 1, 2, -3)[i % 4]
        radius = {1: 200, 2: 840, -3: 520}[b]
        c1, c2 = _random_coeffs(rng), _random_coeffs(rng)
        l = max(len(c1), len(c2)) - 1
        tr = run_heyde_chain(_poly_window(c1, radius), _poly_window(c2, radius), b,
                             r_degree=l)
        assert (tr.premise_residual, tr.annihilation_residual,
                tr.collapse_residual, tr.direct_residual) == (0.0, 0.0, 0.0, 0.0)
        assert tr.certified_order == l + 4
        assert tr.degree_bound_ok and tr.p_degree <= max(2, l)
        exact += 1
    for i in range(12):
        order = (5, 7, 9, 11)[i % 4]
        g = FiniteAbelianGroup((order,))
        while True:
            m = int(rng.integers(1, order - 1))
            if np.gcd(m, order) == 1 and np.gcd(m + 1, order) == 1:
                break
        tr = run_heyde_chain(tabulate_const(g, float(rng.normal())),
                             tabulate_const(g, float(rng.normal())),
                             Automorphism.multiplication(g, m), r_degree=0)
        assert (tr.premise_residual, tr.collapse_residual, tr.direct_residual) == (0.0, 0.0, 0.0)
        assert tr.certified_order == 4
        assert tr.degree_bound_ok and tr.p_degree == 0
        exact += 1
    assert exact == 50

    # freeze the derived targets of clean window instances, then bend one
    # sample by 1e-3: the premise check must fail by at least 1e-4
    rejected = 0
    for seed in range(5):
        prng = make_rng(9000 + seed)
        coeffs = [_random_coeffs(prng) for _ in range(2)]
        bs = [1, -1]
        l = max(len(c) - 1 for c in coeffs)
        radius, sq_radius = 160, 53
        p_coeffs = np.zeros(5)
        q_coeffs = np.zeros(5)
        for c, b in zip(coeffs, bs):
            for k, ck in enumerate(c):
                p_coeffs[k] += ck
                if k > 0:
                    q_coeffs[k] += ck * b**k
        P = _poly_window(p_coeffs, radius)
        Q = _poly_window(q_coeffs, radius)
        uu = np.arange(-sq_radius, sq_radius + 1, dtype=np.float64)
        U, V = np.meshgrid(uu, uu, indexing="ij")
        F = np.zeros_like(U)
        for c, b in zip(coeffs, bs):
            for k, ck in enumerate(c):
                F += ck * (U + b * V) ** k
        Rvals = (F - sum(c * U**k for k, c in enumerate(p_coeffs))
                 - sum(c * V**k for k, c in enumerate(q_coeffs)))
        R = WindowFunction(IntegerWindow(sq_radius, 2), Rvals)
        clean = EliminationProblem(
            terms=[(_poly_window(c, radius), b) for c, b in zip(coeffs, bs)],
            r_degree=l, P=P, Q=Q, R=R,
        )
        assert run_pexider_chain(clean).premise_residual == 0.0
        bent_vals = np.asarray(_poly_window(coeffs[0], radius).values).copy()
        bent_vals[radius + 3] += 1e-3
        bent = EliminationProblem(
            terms=[(WindowFunction(IntegerWindow(radius, 1), bent_vals), bs[0]),
                   (_poly_window(coeffs[1], radius), bs[1])],
            r_degree=l, P=P, Q=Q, R=R,
        )
        with pytest.raises(PremiseError) as err:
            run_pexider_chain(bent)
        assert err.value.residual is not None and err.value.residual >= 1e-4
        rejected += 1
    print(f"\nPASS 08: {exact} seeded chains certified with residual exactly 0.0; "
          f"{rejected} perturbed instances rejected with residual >= 1e-4")


def tabulate_const(group, value):
    from qchar.polynomials import GroupFunction

    return GroupFunction(group, np.full(group.order, value))


def test_09_quadratic_vs_quartic_dichotomy():
    """Parallelogram combination vanishes exactly for s n^2, not for n^4."""
    for sigma in (0.5, 1.0, 2.0):
        f = tabulate(10, 1, lambda x: sigma * x**2)
        assert quadratic_check(f) == 0.0
    quartic = tabulate(10, 1, lambda x: float(x**4))
    vals = np.asarray(quartic.values)
    at_one = vals[10 + 2] + vals[10 + 0] - 2 * vals[10 + 1] - 2 * vals[10 + 1]
    assert at_one == 12.0
    worst = quadratic_check(quartic)
    assert worst >= 12.0
    assert worst == 7500.0  # attained at u = v = 5 inside radius 10
    print("\nPASS 09: s n^2 passes the parallelogram identity exactly for "
          "s in {0.5, 1, 2}; n^4 fails with combination 12 at (1,1) and max 7500")


def _failure(*procs):
    return "\n".join(f"{p.args} exited {p.returncode}:\n{p.stderr.decode(errors='replace')}"
                     for p in procs)


def test_10_reports_are_byte_reproducible(tmp_path, qchar_script):
    """Same corpus, same seeds, same bytes, through both entry paths."""
    corpus = [
        DATA / "heyde_pass.json",
        DATA / "heyde_counterexample.json",
        DATA / "kb_and_circle.json",
        DATA / "full_surface.json",
    ]
    cmd = ["qchar", "run", *[str(p) for p in corpus]]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0, _failure(first, second)
    assert first.stdout == second.stdout
    assert len(first.stdout) > 1000

    sweep_cmd = ["qchar", "sweep", "independence-collapse", "--seed", "31",
                 "--count", "4", "--max-order", "8"]
    s1 = subprocess.run(sweep_cmd, capture_output=True)
    s2 = subprocess.run(sweep_cmd, capture_output=True)
    assert s1.returncode == s2.returncode == 0, _failure(s1, s2)
    assert s1.stdout == s2.stdout

    scenarios = []
    for path in corpus:
        doc = json.load(open(path))
        scenarios.extend(doc["scenarios"] if "scenarios" in doc else [doc])
    once = canonical_json([run_scenario(s) for s in scenarios])
    again = canonical_json([run_scenario(s) for s in scenarios])
    assert once == again
    # the command line and the python api serialize the same reports
    cli_doc = json.loads(first.stdout)
    assert canonical_json(cli_doc["reports"]) == once
    print(f"\nPASS 10: {len(scenarios)} scenario reports and a seeded sweep are "
          f"byte-identical across reruns and across entry paths")
