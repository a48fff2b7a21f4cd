"""repro — SPP logic minimization with partition tries.

A complete reproduction of V. Ciriani, *Logic Minimization using
Exclusive OR Gates* (DAC 2001): pseudocube algebra, partition tries,
exact (Algorithm 2) and heuristic (Algorithm 3, ``SPP_k``) Sum of
Pseudoproducts minimization, the naive baseline of Luccio & Pagli, a
Quine–McCluskey SP baseline, and the benchmark harness regenerating the
paper's tables and figures.

Quick start::

    from repro import BoolFunc, minimize_spp, minimize_sp

    f = BoolFunc.from_lambda(4, lambda p: bin(p).count("1") % 2 == 1)
    spp = minimize_spp(f)
    sp = minimize_sp(f)
    print(spp.form, spp.num_literals, "vs SP", sp.num_literals)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "BoolFunc",
    "Budget",
    "CancelToken",
    "CexExpression",
    "Cube",
    "ExorFactor",
    "MultiBoolFunc",
    "PartitionTrie",
    "Pseudocube",
    "SppForm",
    "assert_equivalent",
    "cex_of",
    "cex_union",
    "dump_json",
    "generate_eppp",
    "generate_eppp_naive",
    "load_json",
    "minimize_aox",
    "minimize_sp",
    "minimize_spp",
    "minimize_spp_bounded",
    "minimize_spp_k",
    "minimize_spp_multi",
    "parse_cex",
    "parse_pla",
    "parse_pla_file",
    "parse_spp",
    "prime_implicants",
    "spp_to_blif",
    "spp_to_verilog",
    "structure_of",
    "sub_pseudocubes",
    "verify_form",
    "write_pla",
]

# Each public name is imported from its submodule on first access: every
# ``import repro.<sub>`` runs this file first, and must load only <sub>.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.boolfunc": (
            "BoolFunc", "MultiBoolFunc", "parse_pla", "parse_pla_file", "write_pla",
        ),
        "repro.budget": ("Budget", "CancelToken"),
        "repro.core": (
            "CexExpression", "ExorFactor", "Pseudocube", "SppForm", "cex_of",
            "cex_union", "structure_of", "sub_pseudocubes",
        ),
        "repro.core.parse": ("parse_cex", "parse_spp"),
        "repro.export": ("spp_to_blif", "spp_to_verilog"),
        "repro.minimize": (
            "Cube", "generate_eppp", "generate_eppp_naive", "minimize_aox",
            "minimize_sp", "minimize_spp", "minimize_spp_bounded",
            "minimize_spp_k", "prime_implicants",
        ),
        "repro.minimize.multi": ("minimize_spp_multi",),
        "repro.serialize": ("dumps as dump_json", "loads as load_json"),
        "repro.trie": ("PartitionTrie",),
        "repro.verify": ("assert_equivalent", "verify_form"),
    },
)
