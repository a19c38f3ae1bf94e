"""forestlie: exact combinatorics of Dyck vectors, compositions, set
partitions, strictly decreasing labeled forests, Dyck polynomials, and the
formal expansion of products of Lie derivatives, with every closed formula
cross-checked against an independent brute-force construction.

Each public name is imported from its home module on first access (PEP 562),
so ``import forestlie`` loads no kernel module until one of its names is used.
"""

import importlib

# home module -> the public names it exports
_EXPORTS = {
    "compositions": ("coeff_clambda", "enumerate_compositions", "derive_step", "pullback_coefficients",
                     "verify_key_identity"),
    "dyck": ("catalan", "coeff_cp", "deficit_profile", "enumerate_dyck", "path_to_vector", "vector_to_path"),
    "errors": ("SelfCheckError",),
    "forests": ("ROOT", "Forest", "Primed", "cprime", "decorate", "enumerate_forests",
                "expand_covariant", "fiber", "graft", "monomial", "prune"),
    "operators": ("OperatorSum", "estimate_certificate", "expand_lie_forests", "expand_lie_partitions",
                  "leibniz_split", "lie_chain_oracle"),
    "partitions": ("SetPartition", "bell", "count_by_shape", "enumerate_partitions", "partition_to_path",
                   "path_to_partition"),
    "polynomial": ("MultiPoly", "poly_equal", "sigma_bruteforce", "sigma_formula"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # an unknown name raises, so `from forestlie import cli` imports the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
