import json

import numpy as np
import pytest

import qchar.elimination as elimination
from qchar.elimination import (
    EliminationProblem,
    EliminationStep,
    EliminationTrace,
    run_heyde_chain,
    run_pexider_chain,
)
from qchar.errors import KernelConditionError, PremiseError, WindowExhaustedError
from qchar.groups import Automorphism, FiniteAbelianGroup
from qchar.polynomials import GroupFunction, WindowFunction, difference, tabulate


def window_pexider_problem(radius=40):
    psi1 = tabulate(radius, 1, lambda x: float(x**2 - 2 * x))
    psi2 = tabulate(radius, 1, lambda x: float(3 * x**3 + x))
    return EliminationProblem(terms=[(psi1, 1), (psi2, -1)], r_degree=3)


def test_window_pexider_exact_zero_residuals():
    trace = run_pexider_chain(window_pexider_problem())
    assert trace.mode == "pexider"
    assert trace.premise_residual == 0.0
    assert trace.annihilation_residual == 0.0
    assert trace.collapse_residual == 0.0
    assert trace.direct_residual == 0.0
    assert trace.cross_degree == 3
    assert trace.p_degree == 3
    assert trace.certified_order == 3 + 2 + 2  # l + n + 2
    assert trace.degree_bound_ok


def test_window_pexider_step_labels():
    trace = run_pexider_chain(window_pexider_problem())
    labels = [s.label for s in trace.steps]
    assert labels == ["cancel-term-2", "cancel-term-1", "cancel-v-part", "annihilate-cross"]
    for entry in trace.sweep:
        assert entry["annihilation"] == 0.0
        assert entry["collapse"] == 0.0


def test_trace_replay_is_deterministic():
    a = run_pexider_chain(window_pexider_problem()).to_dict()
    b = run_pexider_chain(window_pexider_problem()).to_dict()
    assert a == b


def test_perturbed_premise_is_rejected():
    # freeze the canonical targets of the clean instance, then bend one term
    P = tabulate(40, 1, lambda y: float(3 * y**3 + y**2 - y))
    Q = tabulate(40, 1, lambda y: float(-3 * y**3 + y**2 - 3 * y))
    def rem(u, v):
        f = ((u + v) ** 2 - 2 * (u + v)) + (3 * (u - v) ** 3 + (u - v))
        return float(f - (3 * u**3 + u**2 - u) - (-3 * v**3 + v**2 - 3 * v))
    R = tabulate(20, 2, rem)
    psi1 = tabulate(40, 1, lambda x: float(x**2 - 2 * x))
    psi2 = tabulate(40, 1, lambda x: float(3 * x**3 + x))
    clean = EliminationProblem(terms=[(psi1, 1), (psi2, -1)], r_degree=3, P=P, Q=Q, R=R)
    assert run_pexider_chain(clean).premise_residual == 0.0
    vals = np.asarray(psi1.values, dtype=float).copy()
    vals[5] += 1e-3
    bent = EliminationProblem(
        terms=[(WindowFunction(psi1.window, vals), 1), (psi2, -1)],
        r_degree=3, P=P, Q=Q, R=R,
    )
    with pytest.raises(PremiseError) as err:
        run_pexider_chain(bent)
    assert err.value.residual is not None and err.value.residual >= 1e-4


def test_small_window_exhausted():
    psi1 = tabulate(5, 1, lambda x: float(x**2))
    psi2 = tabulate(5, 1, lambda x: float(x**2))
    problem = EliminationProblem(terms=[(psi1, 1), (psi2, -1)], r_degree=3)
    with pytest.raises(WindowExhaustedError):
        run_pexider_chain(problem)


def test_window_heyde_quadratics():
    psi1 = tabulate(112, 1, lambda x: float(x**2))
    psi2 = tabulate(112, 1, lambda x: float(2 * x**2))
    trace = run_heyde_chain(psi1, psi2, 1, r_degree=2)
    assert trace.premise_residual == 0.0
    assert trace.annihilation_residual == 0.0
    assert trace.collapse_residual == 0.0
    assert trace.direct_residual == 0.0
    assert trace.certified_order == 2 + 4  # l + 4
    assert trace.p_degree == 2


def test_window_heyde_rejects_degenerate_coefficient():
    psi = tabulate(20, 1, lambda x: float(x**2))
    for b in (0, -1):
        with pytest.raises(KernelConditionError):
            run_heyde_chain(psi, psi, b, r_degree=0)


def test_group_pexider_constants():
    g = FiniteAbelianGroup((7,))
    t1 = GroupFunction(g, np.full(7, 0.7))
    t2 = GroupFunction(g, np.full(7, -0.2))
    problem = EliminationProblem(
        terms=[(t1, Automorphism.multiplication(g, 1)), (t2, Automorphism.multiplication(g, 3))],
        r_degree=0,
    )
    trace = run_pexider_chain(problem)
    assert trace.mode == "pexider"
    assert trace.premise_residual == 0.0
    assert trace.collapse_residual == 0.0
    assert trace.p_degree == 0
    assert len(trace.sweep) == 6  # every nonzero group shift


def test_group_heyde_mult_two():
    g = FiniteAbelianGroup((5,))
    psi1 = GroupFunction(g, np.full(5, 0.4))
    psi2 = GroupFunction(g, np.full(5, -1.1))
    trace = run_heyde_chain(psi1, psi2, Automorphism.multiplication(g, 2), r_degree=0)
    assert trace.premise_residual == 0.0
    assert trace.collapse_residual == 0.0
    assert trace.certified_order == 4
    assert len(trace.sweep) == 4


def test_group_heyde_two_torsion_kernel():
    g = FiniteAbelianGroup((4,))
    psi = GroupFunction(g, np.zeros(4))
    # I + I = multiplication by 2, which kills (2,) on Z4
    with pytest.raises(KernelConditionError) as err:
        run_heyde_chain(psi, psi, Automorphism.multiplication(g, 1), r_degree=0)
    assert err.value.kernel_element is not None


def test_substitute_and_subtract_window():
    F = tabulate(6, 2, lambda u, v: float(u * u + v))
    out = difference(F.values, (1, 2))
    # (u+1)^2 + (v+2) - u^2 - v = 2u + 3, on the square of radius 6 - 2
    assert out.shape == (9, 9)
    assert out[4 + 1, 4 + 0] == pytest.approx(5.0)


def test_substitute_and_subtract_group_pair():
    vals = np.arange(25, dtype=float)  # on Z_5 x Z_5, (u, v) at 5 u + v
    out = difference(vals, (np.arange(25) + 5) % 25)
    # index (u, v) -> value at (u+1, v) minus value at (u, v)
    assert out[0] == vals[5] - vals[0]


def test_nan_term_fails_the_premise():
    problem = window_pexider_problem()
    (psi1, b1), second = problem.terms
    vals = np.asarray(psi1.values, dtype=float).copy()
    vals[40] = np.nan
    bad = EliminationProblem(terms=[(WindowFunction(psi1.window, vals), b1), second], r_degree=3)
    with pytest.raises(PremiseError) as err:
        run_pexider_chain(bad)
    assert np.isnan(err.value.residual)


def test_group_heyde_nan_term_fails_the_premise():
    g = FiniteAbelianGroup((9,))
    psi1 = np.full(9, 0.4)
    psi1[5] = np.nan
    with pytest.raises(PremiseError):
        run_heyde_chain(GroupFunction(g, psi1), GroupFunction(g, np.full(9, -1.1)),
                        Automorphism.multiplication(g, 4), r_degree=0)


# -- blocked group sweep against the per-shift loop --------------------------------


def _ref_diff(dom, f, *shift):
    """One difference the unbatched way: slices on a window, an ix_ gather on a group."""
    if isinstance(dom, elimination._GroupDomain):
        return f[np.ix_(*(dom.add[:, x] for x in shift))] - f
    r = (f.shape[0] - 1) // 2 - max(abs(x) for x in shift)
    off = (f.shape[0] - 1) // 2 - r
    return f[tuple(slice(off + x, off + x + 2 * r + 1) for x in shift)] - f[
        tuple(slice(off, off + 2 * r + 1) for _ in shift)]


def _ref_run_chain(mode, dom, terms, P, Q, R, l, final_tol):
    """The chain driver with its sweep run one shift at a time."""
    peak, within = elimination.peak, elimination.within
    final_tol = dom.final_tol if final_tol is None else final_tol
    n = len(terms)
    u, v = dom.points[:, None], dom.points[None, :]
    total = sum(elimination._at(dom, psi, a, c, u, v) for psi, a, c in terms)
    remainder = total - elimination._at(dom, P, dom.one, dom.zero, u, v)
    remainder = remainder - elimination._at(dom, Q, dom.zero, dom.one, u, v)
    R = remainder if R is None else R
    premise_residual = peak(remainder - R)
    if not within(premise_residual, elimination.PREMISE_TOL):
        raise PremiseError(f"identity residual {premise_residual:.3e} exceeds "
                           f"{elimination.PREMISE_TOL}", residual=premise_residual)
    r_cert = elimination.min_degree(dom.function(R, l), n_max=l)
    if r_cert is None:
        raise PremiseError(f"cross term fails the degree-{l} polynomial test")
    order = l + n + 2
    trace = EliminationTrace(mode=mode, term_count=n, declared_degree=l, certified_order=order,
                             premise_residual=premise_residual, cross_degree=r_cert.degree)
    names = [(f"term{j}", f"cancel-term-{j}") for j in range(n, 0, -1)] + [("q", "cancel-v-part")]
    parts = terms[::-1] + [(Q, dom.zero, dom.one)]
    cancel = [dom.cancel_shifts(a, c) for _, a, c in parts]
    collapse_shifts = dom.cancel_shifts(dom.one, dom.one)
    require = elimination._require
    for h, label in dom.shifts:
        live = [psi for psi, _, _ in parts]
        p, r, steps = P, R, []
        for i, (name, step) in enumerate(names):
            s, t = h, int(cancel[i][h])
            for j in range(i, len(parts)):
                _, a, c = parts[j]
                live[j] = _ref_diff(dom, live[j], int(dom.lin(a, c, s, t)))
            p = _ref_diff(dom, p, s)
            r = _ref_diff(dom, r, s, t)
            after = peak(live[i])
            require(after, final_tol, f"step {step} failed to cancel {name}")
            steps.append(EliminationStep(label=step, shift=(s, t), cancelled=name, max_after=after))
        for _ in range(l + 1):
            p = _ref_diff(dom, p, h)
            r = _ref_diff(dom, r, h, int(collapse_shifts[h]))
        annihil, collapse, direct = peak(r), peak(dom.u_range(p, r)), peak(p)
        if not trace.steps:
            trace.steps = steps + [EliminationStep(
                label="annihilate-cross", shift=(h, int(collapse_shifts[h])), cancelled="r",
                max_after=annihil)]
        trace.sweep.append({"shift": label, "annihilation": annihil, "collapse": collapse,
                            "direct": direct})
        require(annihil, final_tol, f"cross-term annihilation failed at shift {label}")
        require(peak([collapse, direct]), final_tol,
                f"target difference of order {order} fails to vanish at shift {label}")
    trace.annihilation_residual = peak([e["annihilation"] for e in trace.sweep])
    trace.collapse_residual = peak([e["collapse"] for e in trace.sweep])
    trace.direct_residual = peak([e["direct"] for e in trace.sweep])
    trace.degree_bound = max(n, l)
    tol = None if dom.poly_tol is None else max(final_tol, dom.poly_tol)
    cert = elimination.min_degree(dom.function(P, l), n_max=trace.degree_bound, tol=tol)
    trace.p_degree = cert.degree if cert else None
    trace.degree_bound_ok = cert is not None
    return trace


def _outcome(run):
    try:
        return json.dumps(run().to_dict(), sort_keys=True)
    except PremiseError as exc:
        return (str(exc), np.float64(exc.residual).tobytes() if exc.residual is not None else None)


def _first_coordinate_chain(orders, multipliers, noise, rng):
    """Terms that vary (by ``noise``) only with the first coordinate: every
    difference along a shift whose first coordinate is 0 vanishes, so a
    small final_tol first fails at the first shift that moves it."""
    g = FiniteAbelianGroup(orders)
    first = np.asarray([g.coords(x)[0] for x in range(g.order)])
    terms = [(GroupFunction(g, 0.3 * (j + 1) + noise * rng.standard_normal(orders[0])[first]),
              Automorphism.multiplication(g, m)) for j, m in enumerate(multipliers)]
    return EliminationProblem(terms=terms, r_degree=0)


def _constant_cross_term_chain(noise, rng):
    """A first-coordinate chain on Z_3 x Z_11 whose R is given as exact zeros:
    with noise, a small final_tol first fails at shift [1, 0], the 11th."""
    problem = _first_coordinate_chain((3, 11), (1, 2), noise, rng)
    zero = GroupFunction(FiniteAbelianGroup((3, 11, 3, 11)), np.zeros(33 * 33))
    return EliminationProblem(terms=problem.terms, r_degree=0, R=zero)


def _noisy_z4_z16_chain():
    return _first_coordinate_chain((4, 16), (1, 3, 5), 1e-12, np.random.default_rng(12))


def _largest_peak(problem):
    trace = run_pexider_chain(problem)
    return max(trace.annihilation_residual, trace.collapse_residual, trace.direct_residual)


def _edge_nan_window_terms(radius=101):
    """psi1 (b = 2) with NaN at +radius, psi2 (b = 1): the premise, P and Q stop
    short of that entry (radius odd, not a multiple of 3).  Cancelling term 2
    moves psi1 by -h, which drops the entry at h = +2 and keeps it at h = -2."""
    psi1 = tabulate(radius, 1, lambda x: float(x * x - 3 * x))
    psi1 = WindowFunction(psi1.window, np.where(np.arange(2 * radius + 1) == 2 * radius, np.nan,
                                                psi1.values))
    return [(psi1, 2), (tabulate(radius, 1, lambda x: float(2 * x * x + x)), 1)]


def _oracle_chains():
    rng = np.random.default_rng(12)
    chains = []
    for orders, ms in [((7,), (1, 3)), ((11,), (1, 2, 5)), ((2, 8), (1, 3)), ((4, 4), (1, 3, 5)),
                       ((3, 3, 3), (1, 2))]:
        problem = _first_coordinate_chain(orders, ms, 0.0, rng)
        chains.append(lambda p=problem: run_pexider_chain(p))
        noisy = _first_coordinate_chain(orders, ms, 1e-12, rng)
        for tol in (None, 1e-15):
            chains.append(lambda p=noisy, t=tol: run_pexider_chain(p, final_tol=t))
    for order, m in [(5, 2), (13, 4), (9, 4)]:
        g = FiniteAbelianGroup((order,))
        psi1 = GroupFunction(g, 0.4 + 1e-12 * rng.standard_normal(order))
        psi2 = GroupFunction(g, np.full(order, -1.1))
        for tol in (None, 1e-15):
            chains.append(lambda a=psi1, b=psi2, mm=m, gg=g, t=tol: run_heyde_chain(
                a, b, Automorphism.multiplication(gg, mm), r_degree=0, final_tol=t))
    # a non-constant R on Z_64, whose 0 and 32 are their own negatives: the
    # sweep differences min(h, -h) only and reads the other shift of each pair
    noisy = _first_coordinate_chain((64,), (1, 3, 5), 1e-12, rng)
    for tol in (None, 1e-15):
        chains.append(lambda p=noisy, t=tol: run_pexider_chain(p, final_tol=t))
    noisy = _constant_cross_term_chain(1e-14, rng)
    for tol in (None, 1e-15):
        chains.append(lambda p=noisy, t=tol: run_pexider_chain(p, final_tol=t))
    # a non-constant R on Z_4 x Z_16 first fails at [1, 0], the 9th representative:
    # in the third R sub-block of four at the default block size
    noisy = _noisy_z4_z16_chain()
    for tol in (None, 1e-15, _largest_peak(noisy), np.nextafter(_largest_peak(noisy), 0.0)):
        chains.append(lambda p=noisy, t=tol: run_pexider_chain(p, final_tol=t))
    # a term with one NaN entry: the premise reads it on a group; on a window
    # the sweep reads an edge entry the premise does not, first at shift -2
    g = FiniteAbelianGroup((7,))
    nan_term = GroupFunction(g, np.where(np.arange(7) == 4, np.nan, 0.3))
    chains.append(lambda: run_pexider_chain(EliminationProblem(
        terms=[(nan_term, Automorphism.multiplication(g, 1)),
               (GroupFunction(g, np.full(7, 0.5)), Automorphism.multiplication(g, 3))])))
    for terms in (_edge_nan_window_terms(), _edge_nan_window_terms()[::-1]):
        chains.append(lambda t=terms: run_pexider_chain(EliminationProblem(terms=t, r_degree=2)))
    chains.append(lambda: run_pexider_chain(window_pexider_problem()))
    chains.append(lambda: run_heyde_chain(tabulate(112, 1, lambda x: float(x * x)),
                                          tabulate(112, 1, lambda x: float(2 * x * x)), 1,
                                          r_degree=2))
    return chains


@pytest.mark.parametrize("block_entries", [1, 3 * 49 + 1, 5 * 256, elimination.BLOCK_ENTRIES])
def test_blocked_sweep_matches_the_per_shift_loop(monkeypatch, block_entries):
    # one shift per block, then block sizes that leave a partial last block
    outcomes = []
    for run in _oracle_chains():
        monkeypatch.setattr(elimination, "_run_chain", _ref_run_chain)
        want = _outcome(run)
        monkeypatch.undo()
        monkeypatch.setattr(elimination, "BLOCK_ENTRIES", block_entries)
        assert _outcome(run) == want
        outcomes.append(want)
    # the noisy chains under final_tol 1e-15 fail after their first shift; the
    # NaN chains fail the premise or a cancel step
    failures = [msg for msg, _ in (o for o in outcomes if isinstance(o, tuple))]
    assert all("at shift" in msg or "residual nan" in msg for msg in failures)
    assert any("at shift [1, 0]" in msg for msg in failures)
    assert any(msg.startswith("identity residual nan") for msg in failures)
    assert any(msg.startswith("step cancel-term-1 failed") for msg in failures)


def test_a_deciding_peak_equal_to_final_tol_passes():
    problem = _noisy_z4_z16_chain()
    top = _largest_peak(problem)
    assert top > 0.0
    assert run_pexider_chain(problem, final_tol=top).to_dict() == run_pexider_chain(problem).to_dict()
    with pytest.raises(PremiseError, match="at shift") as err:
        run_pexider_chain(problem, final_tol=np.nextafter(top, 0.0))
    assert err.value.residual == top


def test_a_window_cancel_step_first_fails_at_a_later_shift(monkeypatch):
    checked = []
    real = elimination._require

    def recording(residual, tol, message):
        checked.append(message)
        real(residual, tol, message)

    monkeypatch.setattr(elimination, "_require", recording)
    problem = EliminationProblem(terms=_edge_nan_window_terms(), r_degree=2)
    with pytest.raises(PremiseError, match="step cancel-term-1 failed") as err:
        run_pexider_chain(problem)
    assert np.isnan(err.value.residual)
    # the one-pass sweep checks step by step at the failing shift alone
    assert checked == ["step cancel-term-2 failed to cancel term2",
                       "step cancel-term-1 failed to cancel term1"]
    # shift by shift, the first shift (+2) passes every check
    checked.clear()
    monkeypatch.setattr(elimination, "_run_chain", _ref_run_chain)
    with pytest.raises(PremiseError, match="step cancel-term-1 failed"):
        run_pexider_chain(problem)
    assert "target difference of order 6 fails to vanish at shift 2" in checked
    assert checked[-1] == "step cancel-term-1 failed to cancel term1"


@pytest.mark.parametrize("block_entries", [1, 727, elimination.BLOCK_ENTRIES])
@pytest.mark.parametrize("orders", [(2, 4, 3), (61,)])
def test_group_square_difference_matches_a_per_shift_gather(monkeypatch, orders, block_entries):
    monkeypatch.setattr(elimination, "BLOCK_ENTRIES", block_entries)
    dom = elimination._GroupDomain(FiniteAbelianGroup(orders))
    n, add = dom.group.order, dom.add
    rng = np.random.default_rng(17)
    f = rng.standard_normal((n, n))
    for start in range(0, len(dom.shifts), dom.square_block):
        s = np.arange(start + 1, min(start + dom.square_block, len(dom.shifts)) + 1)
        t = dom.neg[s]  # the collapse pair (h, -h)
        rows = rng.standard_normal((len(s), n, n))  # a block of differenced rows
        for got, base in ((dom.diff(f, s, t), [f] * len(s)), (dom.diff(rows, s, t), rows)):
            want = np.stack([g[add[a]][:, add[b]] - g for g, a, b in zip(base, s, t)])
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_constant_cross_term_oracle_chain_fails_inside_its_second_block(monkeypatch):
    problem = _constant_cross_term_chain(1e-14, np.random.default_rng(3))
    assert run_pexider_chain(problem).cross_degree == 0
    # Z_3 x Z_11 has 16 representatives min(h, -h): [0, 1]..[0, 5] (flat 1-5),
    # then [1, 0]..[1, 10] (flat 11-21); five a block start the second at [1, 0]
    monkeypatch.setattr(elimination, "BLOCK_ENTRIES", 5 * 33)
    heads = []
    batch = elimination._GroupDomain.batch

    def recording(hs):
        heads.append(hs[0])
        return batch(hs)

    monkeypatch.setattr(elimination._GroupDomain, "batch", staticmethod(recording))
    assert len(run_pexider_chain(problem).sweep) == 32
    assert heads == [1, 11, 16, 21]
    heads.clear()
    with pytest.raises(PremiseError, match=r"at shift \[1, 0\]") as err:
        run_pexider_chain(problem, final_tol=1e-15)
    assert err.value.residual > 1e-15
    assert heads == [1, 11]


def test_a_constant_cross_term_sweeps_z64_in_one_block(monkeypatch):
    g = FiniteAbelianGroup((64,))
    terms = [(GroupFunction(g, np.full(64, c)), Automorphism.multiplication(g, m))
             for c, m in ((0.7, 1), (-0.2, 3))]
    calls = []
    real = elimination._GroupDomain.diff

    def counting(self, f, *shift):
        calls.append(len(shift))
        return real(self, f, *shift)

    monkeypatch.setattr(elimination._GroupDomain, "diff", counting)
    trace = run_pexider_chain(EliminationProblem(terms=terms, r_degree=0))
    assert len(trace.sweep) == 63 and trace.annihilation_residual == 0.0
    # the 32 representatives fit one block of BLOCK_ENTRIES // 64 = 256: it
    # differences the terms (n+1)(n+2)/2 times and P n+l+2 times, R never
    n, l = 2, 0
    assert calls == [1] * ((n + 1) * (n + 2) // 2 + n + l + 2)
