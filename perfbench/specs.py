"""Workload sizes and the parameter sets each workload builds.

Kept free of a top-level ``harmcode`` import so that ``setup_probe.py`` can
time the import together with the parameter construction.
"""

P = 2**31 - 1
SCHEMES = ("harmonic", "lcc", "shamir")

# Sizes of the three workloads that run on p = 2^31 - 1.
WIDE = {"p": P, "K": 8, "d": 3, "m": 512, "n": 4}
MANY_INPUTS = {"p": P, "K": 16, "d": 2, "m": 4, "n": 2}
FILE_PIPELINE = {"p": P, "K": 8, "d": 2, "m": 128, "n": 4}

# One audit batch: every dataset and key value of each instance, m = 1.
AUDIT_TINY = {
    "harmonic": {"p": 11, "K": 2, "d": 2, "m": 1},
    "lcc": {"p": 7, "K": 2, "d": 2, "m": 1},
    "shamir": {"p": 5, "K": 2, "d": 2, "m": 1},
    "mutant": {"p": 5, "K": 2, "d": 2, "m": 1, "inner": "harmonic"},
}

# The paper's worked example, used by the smoke mode.
DEMO = {"p": 5, "K": 2, "d": 2, "c": 4, "betas": (4,), "decode_vector": (2, 1, 3, 1)}

SIZES = {
    "wide": WIDE,
    "many-inputs": MANY_INPUTS,
    "audit-tiny": AUDIT_TINY,
    "file-pipeline": FILE_PIPELINE,
}


def scheme_params(scheme, field, K, d):
    """The default parameter set of `scheme` for K inputs and degree d."""
    from harmcode import lcc_params, select_params, shamir_params

    if scheme == "harmonic":
        return select_params(field, K, d)
    if scheme == "lcc":
        return lcc_params(field, K, d)
    if scheme == "shamir":
        return shamir_params(field, K, d)
    raise ValueError(f"unknown scheme {scheme!r}")


def params_for(sizes):
    """{scheme: parameter set} for every scheme at one (p, K, d)."""
    from harmcode import FieldConfig

    field = FieldConfig(sizes["p"])
    return {s: scheme_params(s, field, sizes["K"], sizes["d"]) for s in SCHEMES}


def build_params(workload):
    """Every parameter set `workload` uses, keyed by the name of its instance."""
    from harmcode import FieldConfig

    sizes = SIZES[workload]
    if workload == "audit-tiny":
        return {
            name: scheme_params(inst.get("inner", name), FieldConfig(inst["p"]),
                                inst["K"], inst["d"])
            for name, inst in sizes.items()
        }
    return params_for(sizes)
