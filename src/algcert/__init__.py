"""Exact verification and construction of operator structures on Lie algebras.

Everything is computed over arbitrary-precision rationals: axiom checks
are exact equality tests returning certificates, and every construction
certifies the properties its output is supposed to have, each either by
computing its check or by a pinned entailment from hypotheses it has
already certified (`certificates.entail`).

The package re-exports the public names of its modules lazily (PEP 562):
``algcert.is_reynolds`` imports ``algcert.reynolds`` on first use and is
looked up on that module at every access, never stored here, so a name
always resolves to what its module currently holds.  `catalog` and
`CatalogEntry` are imported eagerly: importing the submodule
``algcert.catalog`` would otherwise rebind the package attribute
``catalog`` from the function to the module.
"""

from importlib import import_module as _import_module

from .catalog import CatalogEntry, catalog

_EXPORTS = {
    "certificates": "Certificate CheckFailed",
    "exact": "Mat Tensor2 Tensor3 flip rat tensor2_map",
    "lie": "BilinForm LieAlgebra Representation adjoint_rep coadjoint_rep dual_rep "
           "is_invariant_form is_quadratic is_representation jacobi_check semidirect",
    "reynolds": "QuadraticReynolds ReynoldsLieAlgebra ReynoldsRep block_window_check "
                "check_ssharp_intertwiner dual_reynolds_rep induced_algebra "
                "is_quadratic_reynolds is_reynolds is_reynolds_rep reynolds_adjoint_rep "
                "reynolds_coadjoint_rep semidirect_reynolds",
    "nslie": "NSLieAlgebra NSRep is_ns_rep is_nslie ns_commutator ns_from_reynolds "
             "ns_rep_from_reynolds_rep ns_semidirect regular_rep",
    "matched": "ManinTripleReynolds MatchedPair ReynoldsMatchedPair double "
               "induced_matched_pair is_manin_triple is_matched_pair is_reynolds_matched_pair "
               "manin_to_matched matched_to_manin reynolds_double",
    "bialgebra": "LieBialgebra ReynoldsLieBialgebra canonical_pair cobracket_from_dual "
                 "coboundary_cobracket coboundary_conditions double_quasitriangular "
                 "drinfeld_double dual_from_cobracket is_lie_bialgebra is_lie_coalgebra "
                 "is_reynolds_bialgebra is_reynolds_coalgebra reynolds_coboundary_condition",
    "rotabaxter": "QuadraticRB RotaBaxterAlg descendent dual_bracket_from_r i_operator "
                  "is_factorizable is_quadratic_rb is_reynolds_on_qrb is_rota_baxter "
                  "minus_rstar_on_descendent r_from_qrb reynolds_descends thmFL_bialgebra",
    "cybe": "PreLieAlgebra RelativeRB ReynoldsPreLie canonical_r cybe_bracket descendent_on_W "
            "is_cybe_solution is_cybe_solution_reynolds is_prelie is_relative_rb "
            "is_reynolds_prelie left_rep matched_from_relrb prelie_from_invertible_relrb "
            "prelie_from_relrb r_plus rk_solution subadjacent",
    "fileio": "",  # no re-exports; listed so that `algcert.fileio` resolves like the others
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_MODULE_OF, *_EXPORTS, "CatalogEntry", "catalog"])
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        # the import system binds a loaded submodule here under its own name
        return getattr(globals().get(module) or _import_module(f".{module}", __name__), name)
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
