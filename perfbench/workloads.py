"""Seeded operation streams for the qchar benchmark.

A workload is an endless, deterministic stream of operations.  The seed
draws every value an operation reads (probabilities, polynomial
coefficients, points, multipliers, sweep seeds, matrices).  The schedule
of operation *shapes* (kind, group, window radius, polynomial degree) is
fixed per workload and repeats in cycles, and the values a seed may draw
for one schedule slot are restricted to those of about the same cost, so
runs on different seeds do the same amount of work and their timings can
be compared.

Each operation has three parts:

* ``prepare()`` builds the qchar input objects from the generated values
  (untimed);
* ``run(prepared)`` is the timed call into qchar's public API, ending in
  ``canonical_json`` of the report, as ``qchar run`` does;
* ``check(prepared, report, raw)`` verifies the outcome against an
  expectation computed by this file, independently of qchar (untimed).

Only generated inputs reach the program: nothing here is read from disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator

import numpy as np

WORKLOADS = ("corpus", "chains", "sweep", "large-groups")

# Seconds one cycle of each schedule takes on the reference machine (2
# vCPU, Python 3.11, numpy 2.4 with one OpenBLAS thread), the cold first
# cycle included.  A run is a whole number of cycles, sized from the
# requested seconds with these constants, so every run on every commit
# does the same work and has the same share of cold operations.
CYCLE_SECONDS = {"corpus": 0.6, "chains": 6.0, "sweep": 0.8, "large-groups": 8.0}
MIN_CYCLES = 2


@dataclass
class Op:
    kind: str
    inputs: dict
    prepare: Callable[[], Any]
    run: Callable[[Any], tuple[dict, str, Any]]
    check: Callable[[Any, dict, Any], str | None]


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def stream(workload: str, seed: int) -> Iterator[Op]:
    """Endless operation stream of one workload."""
    if workload not in _SCHEDULES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = make_rng(seed)
    schedule = _SCHEDULES[workload]
    while True:
        for build in schedule:
            yield build(rng)


def cycle_length(workload: str) -> int:
    return len(_SCHEDULES[workload])


def operation_count(workload: str, seconds: float) -> int:
    """Operations in a run meant to last about ``seconds``: whole cycles."""
    cycles = max(MIN_CYCLES, round(seconds / CYCLE_SECONDS[workload]))
    return cycles * cycle_length(workload)


def fingerprint(value) -> str:
    """Stable text form of generated inputs, used to compare two streams."""
    if isinstance(value, np.ndarray):
        return f"array{value.shape}{value.dtype}:{value.tobytes().hex()}"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{fingerprint(value[k])}" for k in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(fingerprint(v) for v in value) + "]"
    return repr(value)


# ---- shared helpers ---------------------------------------------------------


def _qchar():
    """The qchar package with its layer modules loaded.

    Imported on first use, so the launcher never loads qchar itself, and
    functions are looked up on the modules at call time, so the tracing
    wrappers apply.
    """
    import qchar.characterizers
    import qchar.cli
    import qchar.elimination
    import qchar.groups
    import qchar.kernels
    import qchar.measures
    import qchar.polynomials
    import qchar.scenarios
    import qchar.witnesses

    return qchar


def _units(n: int) -> list[int]:
    return [m for m in range(1, n) if math.gcd(m, n) == 1]


def _weights(rng, size: int) -> list[str]:
    """Strictly positive rational probabilities as 'w/W' strings."""
    w = rng.integers(1, 10, size=size)
    total = int(w.sum())
    return [f"{int(x)}/{total}" for x in w]


def _rand_point(rng, orders) -> list[int]:
    return [int(rng.integers(0, n)) for n in orders]


def _coeffs(rng, degree: int) -> list[int]:
    """Integer coefficients c_0..c_degree in [1, 3]."""
    return [int(c) for c in rng.integers(1, 4, size=degree + 1)]


def _full_degree(cs: list[list[int]], bs) -> list[list[int]]:
    """Bump the last term's leading coefficient if the b-weighted leading
    coefficients cancel.  A cancelling chain certifies a lower degree at a
    quarter of the cost, so without this a slot's cost would depend on the
    seed."""
    if sum(b * c[-1] for b, c in zip(bs, cs)) == 0:
        cs[-1][-1] = cs[-1][-1] % 3 + 1
    return cs


def _random_law(rng, n: int) -> np.ndarray:
    p = rng.random(n) + 1e-3
    return p / p.sum()


def _expand(orders, flat: np.ndarray) -> np.ndarray:
    """Row-major coordinates of flat indices (qchar's element order)."""
    return np.stack(np.unravel_index(flat, orders), axis=-1)


def _character(orders, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> = exp(2 pi i sum_j x_j y_j / n_j) for rows xs and one y."""
    phase = np.zeros(xs.shape[0])
    for j, n in enumerate(orders):
        phase = phase + (xs[:, j] * y[j] % n) / n
    return np.exp(2j * np.pi * phase)


def _serialize(report: dict) -> str:
    return _qchar().cli.canonical_json(report)


def _zero_residuals(trace: dict, keys) -> str | None:
    bad = {k: trace.get(k) for k in keys if trace.get(k) != 0.0}
    return f"residuals not exactly 0.0: {bad}" if bad else None


# ---- corpus: scenarios through run_scenario + canonical_json -------------------


def _scenario_op(kind: str, name: str, payload: dict, expect: str = "pass",
                 check_details: Callable[[dict], str | None] | None = None) -> Op:
    scenario = {"schema": "qchar-scenario-1", "kind": kind, "name": name,
                "payload": payload}
    if expect != "pass":
        scenario["expect"] = expect

    def run(s):
        q = _qchar()
        report = q.scenarios.run_scenario(s)
        return report, q.cli.canonical_json(report), None

    def check(s, report, raw):
        if report["verdict"] != expect or not report["matched"]:
            return f"verdict {report['verdict']!r}, expected {expect!r}"
        if check_details is not None:
            return check_details(report["details"])
        return None

    return Op(kind=f"scenario:{kind}", inputs=scenario, prepare=lambda: scenario,
              run=run, check=check)


# Signatures whose subgroup lattices take about the same time to enumerate.
_INSPECT_ORDERS = ([2, 4], [3, 3])


def _corpus_inspect(rng):
    orders = _INSPECT_ORDERS[int(rng.integers(len(_INSPECT_ORDERS)))]

    def details(d):
        want = (math.prod(orders), math.lcm(*orders))
        got = (d["order"], d["exponent"])
        return None if got == want else f"order/exponent {got}, expected {want}"

    return _scenario_op("group-inspect", "inspect", {"group": {"orders": orders}},
                        check_details=details)


def _corpus_q_product(rng):
    n = int(rng.integers(5, 8))  # from Z_8 on the witness search costs 20x more
    payload = {"group": {"orders": [n]},
               "joint": {"kind": "product",
                         "factors": [{"probs": _weights(rng, n)}, {"probs": _weights(rng, n)}]}}

    def details(d):
        w = d["witness"]
        if w is None or w["residual"] > 1e-9:
            return f"product law needs a zero witness, got {w}"
        return None

    return _scenario_op("q-witness", f"z{n}-product", payload, check_details=details)


def _corpus_q_correlated(rng):
    n = int(rng.integers(3, 6))
    payload = {"group": {"orders": [n]},
               "joint": {"probs": _weights(rng, n * n), "arity": 2},
               "expect_witness": False}
    return _scenario_op("q-witness", f"z{n}-correlated", payload)


def _degenerate_components(rng, n: int, count: int = 2):
    units = _units(n)
    points, comps = [], []
    for _ in range(count):
        x = int(rng.integers(0, n))
        points.append([x])
        comps.append({"distribution": {"kind": "degenerate", "point": [x]},
                      "alpha": {"scalar": int(rng.choice(units))},
                      "beta": {"scalar": int(rng.choice(units))}})
    return points, comps


def _points_match(points):
    def details(d):
        got = [v["point"] for v in d["verdicts"]]
        return None if got == points else f"degenerate points {got}, expected {points}"
    return details


def _corpus_sd(rng):
    n = 11
    points, comps = _degenerate_components(rng, n)
    return _scenario_op("sd", f"z{n}-degenerate", {"group": {"orders": [n]}, "components": comps},
                        check_details=_points_match(points))


def _corpus_sd_violated(rng):
    n = int(rng.choice([5, 7]))
    units = _units(n)
    comps = [{"distribution": {"probs": _weights(rng, n)},
              "alpha": {"scalar": 1}, "beta": {"scalar": int(rng.choice(units[1:]))}}
             for _ in range(2)]
    return _scenario_op("sd", f"z{n}-random", {"group": {"orders": [n]}, "components": comps},
                        expect="hypothesis-violated")


def _heyde_alphas(n: int) -> list[int]:
    return [m for m in range(2, n) if math.gcd(m, n) == 1 and math.gcd(m + 1, n) == 1]


def _corpus_heyde(rng):
    n = int(rng.choice([9, 11]))  # of equal cost; Z_5 and Z_7 are 3-8x cheaper
    m = int(rng.choice(_heyde_alphas(n)))
    x2 = _rand_point(rng, [n])
    x1 = [(-m * x2[0]) % n]  # x1 + alpha x2 = 0 makes the pair conditionally symmetric
    payload = {"group": {"orders": [n]},
               "alpha": {"scalar": m},
               "joint": {"kind": "product", "factors": [
                   {"kind": "degenerate", "point": x1}, {"kind": "degenerate", "point": x2}]}}
    return _scenario_op("heyde", f"z{n}-degenerate", payload,
                        check_details=_points_match([x1, x2]))


def _corpus_heyde_negation(rng):
    n = int(rng.choice([5, 7]))
    probs = _weights(rng, n)
    payload = {"group": {"orders": [n]}, "alpha": {"scalar": -1},
               "joint": {"kind": "product", "factors": [{"probs": probs}, {"probs": probs}]}}
    return _scenario_op("heyde", f"z{n}-negation-iid", payload, expect="counterexample")


# (order, generator of the common subgroup): odd orders keep the
# annihilator doubling-stable, so shifted uniform laws factor.
_KB_SUBGROUPS = ((6, 2), (9, 3), (15, 3), (15, 5), (21, 7))


def _corpus_kb(rng):
    n, g = _KB_SUBGROUPS[int(rng.integers(len(_KB_SUBGROUPS)))]
    sub = {"generators": [[g]]}
    payload = {"group": {"orders": [n]},
               "first": {"kind": "shifted-haar", "point": _rand_point(rng, [n]), "subgroup": sub},
               "second": {"kind": "shifted-haar", "point": _rand_point(rng, [n]), "subgroup": sub}}
    return _scenario_op("kb", f"z{n}-shifted-uniform", payload)


def _corpus_kb_violated(rng):
    # on Z_4 and Z_8 the uniform law on {0, n/2} shifted by an odd point
    # breaks the doubling identity
    n = int(rng.choice([4, 8]))
    odd = int(rng.choice(range(1, n, 2)))
    sub = {"generators": [[n // 2]]}
    payload = {"group": {"orders": [n]},
               "first": {"kind": "shifted-haar", "point": [odd], "subgroup": sub},
               "second": {"kind": "shifted-haar", "point": [0], "subgroup": sub}}
    return _scenario_op("kb", f"z{n}-not-doubling-stable", payload, expect="hypothesis-violated")


def _corpus_cramer_group(rng):
    n = int(rng.integers(5, 12))
    x1, x2 = _rand_point(rng, [n]), _rand_point(rng, [n])
    payload = {"group": {"orders": [n]},
               "target": {"kind": "degenerate", "point": [(x1[0] + x2[0]) % n]},
               "factors": [{"kind": "degenerate", "point": x1},
                           {"kind": "degenerate", "point": x2}]}
    return _scenario_op("cramer", f"z{n}-degenerate-split", payload)


def _gaussian_pair(rng):
    # sigma >= 1/2 keeps the radius-3 window of each factor positive definite
    s1, s2 = (float(Fraction(int(rng.integers(4, 8)), 8)) for _ in range(2))
    m1, m2 = (float(Fraction(int(rng.integers(-4, 5)), 8)) for _ in range(2))
    return (m1, s1), (m2, s2)


def _corpus_cramer_circle(rng):
    (m1, s1), (m2, s2) = _gaussian_pair(rng)
    payload = {"mode": "circle", "radius": 3, "min_truncation": 12,
               "target": {"shift": m1 + m2, "sigma": s1 + s2},
               "factors": [{"shift": m1, "sigma": s1}, {"shift": m2, "sigma": s2}]}
    return _scenario_op("cramer", "circle-gaussian-split", payload)


def _corpus_cramer_perturbed(rng):
    (m1, s1), (m2, s2) = _gaussian_pair(rng)
    payload = {"mode": "circle", "radius": 3, "min_truncation": 12,
               "target": {"shift": m1 + m2, "sigma": s1 + s2},
               "factors": [{"shift": m1, "sigma": s1,
                            "perturb": {"offset": int(rng.integers(1, 3)), "amount": 0.9}},
                           {"shift": m2, "sigma": s2}]}
    return _scenario_op("cramer", "circle-perturbed-factor", payload, expect="hypothesis-violated")


_CHAIN_RESIDUALS = ("premise_residual", "annihilation_residual", "collapse_residual",
                    "direct_residual")
_GROUP_CHAIN_RESIDUALS = ("premise_residual", "collapse_residual", "direct_residual")


def _chain_details(keys):
    def details(d):
        return _zero_residuals(d, keys)
    return details


def _poly_coefficients(c: list[int]) -> dict:
    return {str(k): v for k, v in enumerate(c)}


def _corpus_pexider_window(degree: int):
    def build(rng):
        cs = _full_degree([_coeffs(rng, degree), _coeffs(rng, degree)], (1, -1))
        terms = [{"psi": {"radius": 40, "coefficients": _poly_coefficients(c)}, "b": b}
                 for c, b in zip(cs, (1, -1))]
        return _scenario_op("pexider-chain", f"window-deg{degree}",
                            {"terms": terms, "r_degree": degree},
                            check_details=_chain_details(_CHAIN_RESIDUALS))
    return build


def _corpus_pexider_group(rng):
    n = 11
    ms = [int(m) for m in rng.choice(_units(n), size=2, replace=False)]
    terms = [{"values": [int(rng.integers(-9, 10))] * n, "b": {"scalar": m}} for m in ms]
    return _scenario_op("pexider-chain", f"z{n}-constants",
                        {"group": {"orders": [n]}, "terms": terms, "r_degree": 0},
                        check_details=_chain_details(_GROUP_CHAIN_RESIDUALS))


def _corpus_heyde_window(rng):
    c1, c2 = _coeffs(rng, 2), _coeffs(rng, 2)
    payload = {"psi1": {"radius": 112, "coefficients": _poly_coefficients(c1)},
               "psi2": {"radius": 112, "coefficients": _poly_coefficients(c2)},
               "b": 1, "r_degree": 2}
    return _scenario_op("heyde-chain", "window-quadratics", payload,
                        check_details=_chain_details(_CHAIN_RESIDUALS))


def _quartic_pair_q(a: float, b: float) -> dict:
    """q(u, v) = -a(u+v)^4 - b(u-v)^4 + (a+b)(u^4 + v^4), expanded here."""
    out = {}
    for t in range(5):
        c = -(a + (-1) ** (4 - t) * b) * math.comb(4, t)
        if t in (0, 4):
            c += a + b
        if c:
            out[f"{t},{4 - t}"] = c
    return out


# (4a, 4b) of opposite parity with a > 1 all take about the same time;
# the other pairs take 3-12x longer.
_CIRCLE_PAIRS = tuple((a, b) for a in range(5, 9) for b in range(4, 9) if (a - b) % 2)


def _corpus_circle_pair(rng):
    a, b = (float(Fraction(x, 4)) for x in _CIRCLE_PAIRS[int(rng.integers(len(_CIRCLE_PAIRS)))])
    payload = {"phi": {"even_coeffs": {"4": a}}, "pair_phi": {"even_coeffs": {"4": b}},
               "min_truncation": 12, "radius": 6,
               "expect_coefficients": _quartic_pair_q(a, b)}
    return _scenario_op("circle-construct", "quartic-pair-witness", payload)


def _corpus_circle_rejected(rng):
    c = float(Fraction(int(rng.integers(1, 5)), 200))
    return _scenario_op("circle-construct", "slow-quadratic-rejected",
                        {"phi": {"even_coeffs": {"2": c}}}, expect="hypothesis-violated")


# ---- chains: elimination chains on seeded integer data -----------------------


def _window_values(coeffs: list[int], radius: int) -> np.ndarray:
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    vals = np.zeros_like(x)
    for k, c in enumerate(coeffs):
        vals += float(c) * x**k
    return vals


def _chain_op(kind: str, inputs: dict, prepare, call, keys) -> Op:
    def run(args):
        trace = call(*args)
        report = trace.to_dict()
        return report, _serialize(report), trace

    def check(args, report, trace):
        if not report.get("degree_bound_ok"):
            return "degree bound not certified"
        return _zero_residuals(report, keys)

    return Op(kind=kind, inputs=inputs, prepare=prepare, run=run, check=check)


def _pexider_window(n: int, degree: int, radius: int = 160):
    bs = (1, -1, 2)[:n]

    def build(rng):
        cs = _full_degree([_coeffs(rng, degree) for _ in range(n)], bs)
        inputs = {"coeffs": cs, "b": list(bs), "radius": radius, "r_degree": degree}

        def prepare():
            q = _qchar()
            win = q.polynomials.IntegerWindow(radius, 1)
            terms = [(q.polynomials.WindowFunction(win, _window_values(c, radius)), b)
                     for c, b in zip(cs, bs)]
            return (q.elimination.EliminationProblem(terms=terms, r_degree=degree),)

        return _chain_op(f"pexider-window-n{n}", inputs, prepare,
                         lambda p: _qchar().elimination.run_pexider_chain(p), _CHAIN_RESIDUALS)
    return build


_HEYDE_RADIUS = {1: 200, 2: 840, -3: 520}


def _heyde_window(b: int, degree: int):
    radius = _HEYDE_RADIUS[b]

    def build(rng):
        c1, c2 = _coeffs(rng, degree), _coeffs(rng, degree)
        inputs = {"c1": c1, "c2": c2, "b": b, "radius": radius, "r_degree": degree}

        def prepare():
            q = _qchar()
            win = q.polynomials.IntegerWindow(radius, 1)
            return (q.polynomials.WindowFunction(win, _window_values(c1, radius)),
                    q.polynomials.WindowFunction(win, _window_values(c2, radius)), b)

        return _chain_op(f"heyde-window-b{b}", inputs, prepare,
                         lambda p1, p2, bb: _qchar().elimination.run_heyde_chain(
                             p1, p2, bb, r_degree=degree),
                         _CHAIN_RESIDUALS)
    return build


def _pexider_group(orders: tuple[int, ...], n: int):
    def build(rng):
        exponent = math.lcm(*orders)
        ms = [int(m) for m in rng.choice(_units(exponent), size=n, replace=False)]
        consts = [float(rng.normal()) for _ in range(n)]
        inputs = {"orders": list(orders), "multipliers": ms, "constants": consts}

        def prepare():
            q = _qchar()
            g = q.groups.FiniteAbelianGroup(orders)
            terms = [(q.polynomials.GroupFunction(g, np.full(g.order, c)),
                      q.groups.Automorphism.multiplication(g, m)) for c, m in zip(consts, ms)]
            return (q.elimination.EliminationProblem(terms=terms, r_degree=0),)

        return _chain_op(f"pexider-group-{'x'.join(map(str, orders))}", inputs, prepare,
                         lambda p: _qchar().elimination.run_pexider_chain(p),
                         _GROUP_CHAIN_RESIDUALS)
    return build


def _heyde_group(order: int):
    def build(rng):
        m = int(rng.choice(_heyde_alphas(order)))
        consts = [float(rng.normal()), float(rng.normal())]
        inputs = {"order": order, "multiplier": m, "constants": consts}

        def prepare():
            q = _qchar()
            g = q.groups.FiniteAbelianGroup((order,))
            return (q.polynomials.GroupFunction(g, np.full(order, consts[0])),
                    q.polynomials.GroupFunction(g, np.full(order, consts[1])),
                    q.groups.Automorphism.multiplication(g, m))

        return _chain_op(f"heyde-group-{order}", inputs, prepare,
                         lambda p1, p2, b: _qchar().elimination.run_heyde_chain(
                             p1, p2, b, r_degree=0),
                         _GROUP_CHAIN_RESIDUALS)
    return build


# ---- sweep: README-size sweeps and small transforms --------------------------


def _sweep_op(kind: str):
    def build(rng):
        seed = int(rng.integers(0, 2**31))
        inputs = {"kind": kind, "seed": seed, "count": 50, "max_order": 12}

        def run(_):
            q = _qchar()
            report = q.scenarios.run_sweep(kind, seed=seed, count=50, max_order=12,
                                           arities=(2, 3))
            return report, q.cli.canonical_json(report), None

        def check(_, report, raw):
            d = report["details"]
            want = 11 * 50 * (2 if kind == "independence-collapse" else 1)
            if d["failures"] != [] or report["verdict"] != "pass" or d["cases"] != want:
                return f"sweep verdict {report['verdict']}, {len(d['failures'])} failures, " \
                       f"{d['cases']} cases (expected {want})"
            return None

        return Op(kind=f"sweep:{kind}", inputs=inputs, prepare=lambda: None, run=run,
                  check=check)
    return build


# The numpy signatures of the old kernel timing script (orders 64-512);
# its larger ones (1024, 2048) are in large-groups.
SMALL_SIGNATURES = ((64,), (128,), (360,), (16, 16), (8, 8, 8))


def _transforms_op(rows: int = 32):
    """dft_many on a batch of rows plus convolve of two laws, on every small
    signature: many small transforms on groups whose tables stay cached."""
    def build(rng):
        data = []
        for orders in SMALL_SIGNATURES:
            n = math.prod(orders)
            mat = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
            p, q = _random_law(rng, n), _random_law(rng, n)
            data.append({"orders": orders, "mat": mat, "p": p, "q": q,
                         "probes": rng.integers(0, n, size=2)})

        def prepare():
            return [_qchar().groups.FiniteAbelianGroup(d["orders"]) for d in data]

        def run(groups):
            k = _qchar().kernels
            out = [(k.dft_many(g, d["mat"]), k.convolve(g, d["p"], d["q"]))
                   for g, d in zip(groups, data)]
            report = {"kind": "transforms", "rows": rows,
                      "results": [{"orders": list(d["orders"]),
                                   "dft_sum": complex(spec.sum()).real,
                                   "conv_max": float(conv.max())}
                                  for d, (spec, conv) in zip(data, out)]}
            return report, _serialize(report), out

        def check(groups, report, out):
            for d, (spec, conv) in zip(data, out):
                problem = (_check_dft(d["orders"], d["mat"], spec, d["probes"])
                           or _check_convolve(d["orders"], d["p"], d["q"], conv, d["probes"]))
                if problem:
                    return problem
            return None

        return Op(kind="transforms", inputs={"signatures": data}, prepare=prepare, run=run,
                  check=check)
    return build


def _check_dft(orders, mat, spec, probes) -> str | None:
    n = math.prod(orders)
    xs = _expand(orders, np.arange(n))
    for y in probes:
        if np.abs(mat @ _character(orders, xs, xs[y]) - spec[:, y]).max() > 1e-9 * n:
            return f"dft_many on {orders} column {int(y)} disagrees with the direct sum"
    return None


def _check_convolve(orders, p, q, out, probes) -> str | None:
    n = math.prod(orders)
    xs = _expand(orders, np.arange(n))
    for y in probes:
        diff = np.ravel_multi_index(tuple(((xs[y] - xs) % orders).T), orders)
        if abs(float(p @ q[diff]) - out[y]) > 1e-12:
            return f"convolve on {orders} entry {int(y)} disagrees with the direct sum"
    if abs(out.sum() - 1.0) > 1e-12:
        return f"convolve on {orders} lost mass"
    return None


# ---- large-groups: orders 1024-4096, each group cold first -------------------


def _char_fn_op(orders: tuple[int, ...]):
    def build(rng):
        n = math.prod(orders)
        probs = _random_law(rng, n)
        probes = rng.integers(0, n, size=3)
        inputs = {"orders": list(orders), "probs": probs, "probes": probes}

        def prepare():
            q = _qchar()
            return q.measures.Distribution(q.groups.FiniteAbelianGroup(orders), probs)

        def run(dist):
            cf = _qchar().measures.char_fn(dist)
            report = {"kind": "char_fn", "orders": list(orders),
                      "sum_abs": float(np.abs(cf.values).sum())}
            return report, _serialize(report), cf.values

        def check(dist, report, values):
            xs = _expand(orders, np.arange(n))
            for y in probes:
                if abs(probs @ _character(orders, xs, xs[y]) - values[y]) > 1e-12:
                    return f"char_fn at {int(y)} disagrees with the direct sum"
            return None

        return Op(kind=f"char_fn-{'x'.join(map(str, orders))}", inputs=inputs,
                  prepare=prepare, run=run, check=check)
    return build


def _convolve_op(orders: tuple[int, ...]):
    def build(rng):
        n = math.prod(orders)
        p, q = _random_law(rng, n), _random_law(rng, n)
        probes = rng.integers(0, n, size=3)
        inputs = {"orders": list(orders), "p": p, "q": q, "probes": probes}

        def prepare():
            m = _qchar().measures
            g = _qchar().groups.FiniteAbelianGroup(orders)
            return m.Distribution(g, p), m.Distribution(g, q)

        def run(laws):
            c = _qchar().measures.convolve(*laws)
            report = {"kind": "convolve", "orders": list(orders),
                      "max": float(c.probs.max())}
            return report, _serialize(report), c.probs

        def check(laws, report, out):
            return _check_convolve(orders, p, q, out, probes)

        return Op(kind=f"convolve-{'x'.join(map(str, orders))}", inputs=inputs,
                  prepare=prepare, run=run, check=check)
    return build


def _q_witness_product_op(side: int):
    def build(rng):
        p1, p2 = _random_law(rng, side), _random_law(rng, side)
        inputs = {"side": side, "p1": p1, "p2": p2}

        def prepare():
            q = _qchar()
            g = q.groups.FiniteAbelianGroup((side,))
            return q.measures.product_joint([q.measures.Distribution(g, p1),
                                             q.measures.Distribution(g, p2)])

        def run(joint):
            w = _qchar().witnesses.extract_q_witness(joint)
            report = {"kind": "q-witness", "orders": [side, side],
                      "witness": None if w is None else {"degree": w.degree,
                                                         "residual": float(w.residual)}}
            return report, _serialize(report), w

        def check(joint, report, w):
            if w is None or w.residual > 1e-9 or np.abs(np.asarray(w.q.values)).max() != 0.0:
                return "a product law must give an exact zero witness"
            return None

        return Op(kind=f"q-witness-{side}x{side}", inputs=inputs, prepare=prepare,
                  run=run, check=check)
    return build


def _kb_op(order: int, generator: int):
    def build(rng):
        x1, x2 = int(rng.integers(0, order)), int(rng.integers(0, order))
        inputs = {"order": order, "generator": generator, "points": [x1, x2]}

        def prepare():
            q = _qchar()
            g = q.groups.FiniteAbelianGroup((order,))
            sub = q.groups.Subgroup.from_generators(g, [(generator,)])
            cf1 = q.measures.char_fn(q.measures.shifted_haar(g, (x1,), sub))
            cf2 = q.measures.char_fn(q.measures.shifted_haar(g, (x2,), sub))
            return q.characterizers.KBInstance(g, cf1, cf2)

        def run(inst):
            fac = _qchar().characterizers.kb_factorize(inst)
            report = fac.to_dict()
            return report, _serialize(report), fac

        def check(inst, report, fac):
            step = math.gcd(generator, order)
            shifts = [f["shift"][0] % step for f in report["factors"]]
            if shifts != [x1 % step, x2 % step]:
                return f"factor shifts {shifts} not in the cosets of {x1}, {x2}"
            if len(report["factors"][0]["subgroup"]) != order // step:
                return "factor subgroup has the wrong order"
            return None

        return Op(kind=f"kb-{order}", inputs=inputs, prepare=prepare, run=run, check=check)
    return build


def _sd_op(order: int):
    def build(rng):
        units = _units(order)
        points = [int(rng.integers(0, order)) for _ in range(2)]
        mults = [[int(rng.choice(units)), int(rng.choice(units))] for _ in range(2)]
        inputs = {"order": order, "points": points, "multipliers": mults}

        def prepare():
            q = _qchar()
            g = q.groups.FiniteAbelianGroup((order,))
            cfs = [q.measures.char_fn(q.measures.degenerate(g, (x,))) for x in points]
            mul = q.groups.Automorphism.multiplication
            return q.characterizers.SDInstance(
                g, cfs, [mul(g, a) for a, _ in mults], [mul(g, b) for _, b in mults])

        def run(inst):
            con = _qchar().characterizers.sd_conclude(inst)
            report = con.to_dict()
            return report, _serialize(report), con

        def check(inst, report, con):
            got = [v["point"] for v in report["verdicts"]]
            if got != [[x] for x in points]:
                return f"degenerate points {got}, expected {points}"
            return None

        return Op(kind=f"sd-{order}", inputs=inputs, prepare=prepare, run=run, check=check)
    return build


def _heyde_op(order: int):
    def build(rng):
        m = int(rng.choice(_heyde_alphas(order)))
        x2 = int(rng.integers(0, order))
        points = [(-m * x2) % order, x2]
        inputs = {"order": order, "points": points, "alpha": m}

        def prepare():
            q = _qchar()
            g = q.groups.FiniteAbelianGroup((order,))
            joint = q.measures.product_joint([q.measures.degenerate(g, (x,)) for x in points])
            return q.characterizers.HeydeInstance(
                g, joint, q.groups.Automorphism.multiplication(g, m))

        def run(inst):
            con = _qchar().characterizers.heyde_conclude(inst)
            report = con.to_dict()
            return report, _serialize(report), con

        def check(inst, report, con):
            got = [v["point"] for v in report["verdicts"]]
            if got != [[x] for x in points]:
                return f"degenerate points {got}, expected {points}"
            return None

        return Op(kind=f"heyde-{order}", inputs=inputs, prepare=prepare, run=run, check=check)
    return build


def _dft_op(orders: tuple[int, ...], rows: int = 32):
    def build(rng):
        n = math.prod(orders)
        mat = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
        probes = rng.integers(0, n, size=2)
        inputs = {"orders": list(orders), "mat": mat, "probes": probes}

        def run(g):
            spec = _qchar().kernels.dft_many(g, mat)
            report = {"kind": "dft_many", "orders": list(orders), "rows": rows,
                      "sum": complex(spec.sum()).real}
            return report, _serialize(report), spec

        def check(g, report, spec):
            return _check_dft(orders, mat, spec, probes)

        return Op(kind=f"dft_many-{'x'.join(map(str, orders))}", inputs=inputs,
                  prepare=lambda: _qchar().groups.FiniteAbelianGroup(orders),
                  run=run, check=check)
    return build


# ---- schedules ------------------------------------------------------------------

_SCHEDULES = {
    # Eight kinds cost under 1.5 ms and nine cost over 4 ms; the three kb
    # slots (about 2 ms) sit between them, so the median falls inside the
    # kb class rather than on the gap between two classes.
    "corpus": [
        _corpus_inspect, _corpus_q_product, _corpus_sd, _corpus_pexider_window(1),
        _corpus_heyde, _corpus_kb, _corpus_cramer_circle, _corpus_q_correlated, _corpus_kb,
        _corpus_circle_pair, _corpus_sd_violated, _corpus_cramer_group,
        _corpus_heyde_window, _corpus_kb_violated, _corpus_heyde_negation, _corpus_kb,
        _corpus_pexider_group, _corpus_cramer_perturbed, _corpus_circle_rejected,
        _corpus_pexider_window(2),
    ],
    # Five degree-3 window chains per cycle form the slowest warm class, so
    # the tail (11th largest of four cycles) sits inside it; the group
    # chains on orders 47-64 form the class the median falls in.
    "chains": [
        _pexider_group((47,), 2), _pexider_window(2, 3), _heyde_window(1, 0),
        _pexider_group((61,), 3), _heyde_window(2, 3), _pexider_window(3, 2),
        _heyde_group(63), _pexider_group((8, 8), 2), _heyde_window(-3, 3),
        _pexider_window(2, 1), _heyde_group(47), _pexider_group((4, 4, 4), 2),
        _heyde_window(1, 3), _pexider_group((11,), 3), _pexider_window(3, 3),
        _heyde_group(23), _pexider_group((63,), 2), _heyde_window(2, 2),
        _heyde_window(-3, 1), _heyde_group(61), _pexider_group((64,), 3),
        _pexider_group((23,), 2),
    ],
    # The transform batches are two thirds of the operations, so the median
    # falls inside their class; the tail falls among the independence sweeps.
    "sweep": [
        _sweep_op("independence-collapse"), _transforms_op(), _transforms_op(),
        _sweep_op("convolution"), _transforms_op(), _transforms_op(),
    ],
    # Each group is used cold once and then reused.  Three Z_63 Heyde
    # conclusions per cycle form the slowest warm class (where the tail
    # falls); the 4096-point transforms form the class of the median.
    "large-groups": [
        _char_fn_op((4096,)), _convolve_op((4096,)), _dft_op((1024,)), _dft_op((2048,)),
        _q_witness_product_op(64), _kb_op(1021, 0), _char_fn_op((64, 64)),
        _convolve_op((64, 64)), _sd_op(61), _kb_op(1023, 33), _heyde_op(63),
        _char_fn_op((16, 16, 16)), _convolve_op((16, 16, 16)), _dft_op((1024,)),
        _char_fn_op((4096,)), _convolve_op((4096,)), _heyde_op(63), _dft_op((2048,)),
        _sd_op(61), _kb_op(1021, 0), _q_witness_product_op(64), _heyde_op(63),
    ],
}
