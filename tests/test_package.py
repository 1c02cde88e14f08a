"""The package namespace is the union of the modules' public names."""

import importlib

import qchar

MODULES = ("errors", "groups", "measures", "kernels", "polynomials", "witnesses", "circle",
           "elimination", "characterizers", "scenarios", "cli")

EXPORTS = [
    "Automorphism", "CharacteristicFunction", "CircleDistribution", "ConstructionRejectedError",
    "CramerReport", "DOCUMENT_SCHEMA", "Distribution", "EliminationProblem", "EliminationStep",
    "EliminationTrace", "EvenPolynomial", "FactorizationError", "FiniteAbelianGroup",
    "GaussianSpec", "GroupElement", "GroupFunction", "GroupHom", "GroupMismatchError",
    "HAS_NUMBA", "HeydeConclusion", "HeydeInstance", "HypothesisError", "IntegerWindow",
    "InvalidElementError", "InvalidSubgroupError", "JointDistribution", "KBFactorization",
    "KBInstance", "KernelConditionError", "NotAHomomorphismError", "NotAnAutomorphismError",
    "NotPositiveDefiniteError", "ORDER_CAP", "PolynomialCertificate", "PremiseError",
    "QWitness", "QcharError", "SCENARIO_SCHEMA", "SDConclusion", "SDInstance", "SWEEP_KINDS",
    "ScenarioFormatError", "SizeLimitError", "SpectralJoint", "Subgroup", "UndefinedLogError",
    "WindowExhaustedError", "WindowFunction", "active_backend", "adjoint", "all_subgroups",
    "annihilator", "canonical_json", "char_fn", "check_document", "constancy_check", "convolve",
    "cramer_check", "degenerate", "density_grid", "dft", "dft_many", "difference",
    "element_order", "exp_poly_distribution", "extract_q_witness", "fit_polynomial_window",
    "gate_sum", "gaussian_check", "gaussian_distribution", "generating_set",
    "groups_up_to_order", "haar", "haar_cf", "heyde_conclude", "heyde_condition",
    "heyde_symmetry_residual", "idempotent_shift_factor", "inverse_char_fn", "is_corwin",
    "is_polynomial", "kb_doubling_check", "kb_equation_residual", "kb_factorize",
    "linear_form_joint", "main", "make_rng", "min_degree", "monomials_up_to",
    "multiplication_map", "pairing", "pairing_is_one", "peak", "phase_matrix", "poly_eval",
    "primary_component", "product_joint", "push_forward", "quadratic_check",
    "random_distribution", "run_construct", "run_heyde_chain", "run_inspect",
    "run_pexider_chain", "run_scenario", "run_sweep", "sd_conclude", "sd_equation_residual",
    "shifted_haar", "structural_predicates", "sum_difference_joint", "sum_difference_q",
    "support_bound", "symmetry_witness", "tabulate", "within",
]


def test_package_exports_are_pinned():
    assert sorted(qchar.__all__) == EXPORTS
    assert len(qchar.__all__) == len(set(qchar.__all__))


def test_every_export_is_its_module_object():
    for name in MODULES:
        module = importlib.import_module(f"qchar.{name}")
        for export in module.__all__:
            want = getattr(qchar.kernels if export == "convolve" else module, export)
            assert getattr(qchar, export) is want, (name, export)
    assert qchar.convolve is qchar.kernels.convolve
    assert qchar.measures.convolve is not qchar.convolve
