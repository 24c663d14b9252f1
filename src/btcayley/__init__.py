"""Cayley graphs of the symmetric group over the block transpositions.

The package builds the generating set T_n of all block transpositions,
the graph induced on it, the toric and reversal symmetries, the rotation
systems whose faces realize the cyclic relations, and the automorphism
groups of all of these.  Every structural fact carries a runnable check
in the claim registry (btcayley.verify); the command line front end in
btcayley.cli drives the same registry.

Importing the package loads none of its modules: each exported name loads
its home module on first use, so a process pays only for the layers it
reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# Home module of every exported name, and of every submodule (its own home):
# __all__ is every key that is no submodule.  Nothing is imported until a
# name is first read: see __getattr__.
_HOME = {
    "IDENTITY": "blocktrans",
    "TN_CLASSES": "blocktrans",
    "CutPoints": "blocktrans",
    "beta": "blocktrans",
    "bt_inverse": "blocktrans",
    "bt_power": "blocktrans",
    "classify": "blocktrans",
    "enumerate_tn": "blocktrans",
    "make_bt": "blocktrans",
    "partition_counts": "blocktrans",
    "recognize": "blocktrans",
    "tn_realizations": "blocktrans",
    "tn_size": "blocktrans",
    "NO_BUDGET": "budget",
    "Budget": "budget",
    "BudgetExceeded": "budget",
    "Graph": "graphs",
    "bfs_distance": "graphs",
    "build_cayley": "graphs",
    "degree_profile": "graphs",
    "e_edges": "graphs",
    "gamma": "graphs",
    "gamma_v": "graphs",
    "graphs_isomorphic": "graphs",
    "hamilton_cycle_gamma_v": "graphs",
    "maximal_2_cliques": "graphs",
    "vertex_set_V": "graphs",
    "CayleyMap": "maps",
    "SkewMorphismWitness": "maps",
    "aut_order": "maps",
    "build_map": "maps",
    "is_regular": "maps",
    "map_report": "maps",
    "mprime_n5_map": "maps",
    "octahedron_map": "maps",
    "prop72_map": "maps",
    "t_balance": "maps",
    "Permutation": "perms",
    "identity": "perms",
    "lift": "perms",
    "parse_permutation": "perms",
    "restrict": "perms",
    "reverse": "perms",
    "sym_group": "perms",
    "DihedralElement": "toric",
    "apply_dihedral": "toric",
    "bar_f": "toric",
    "bar_f_witness": "toric",
    "compose_lh_barf": "toric",
    "dihedral_elements": "toric",
    "euler_phi": "toric",
    "reverse_g": "toric",
    "reverse_g_conj": "toric",
    "toric_class": "toric",
    "toric_class_stats": "toric",
    "toric_f": "toric",
    "Claim": "verify",
    "ClaimFailure": "verify",
    "VerificationReport": "verify",
    "claim_keys": "verify",
    "run_all": "verify",
    "run_claim": "verify",
    "VertexMap": "autgroup",
    "aut_group": "autgroup",
    "generated_subgroup": "autgroup",
    "is_automorphism": "autgroup",
    "left_translation": "autgroup",
    "stabilizer_of_identity": "autgroup",
    "autgroup": "autgroup",
    "blocktrans": "blocktrans",
    "budget": "budget",
    "cli": "cli",
    "graphs": "graphs",
    "maps": "maps",
    "perms": "perms",
    "toric": "toric",
    "verify": "verify",
}

__all__ = [name for name, home in _HOME.items() if name != home]


def __getattr__(name: str):
    """Import the home module of name on first use and keep the value here (PEP 562)."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
