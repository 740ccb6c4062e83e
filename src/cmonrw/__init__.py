"""String diagram rewriting modulo commutative monoid structure."""

from cmonrw.cospan import (
    Cospan,
    FinFunction,
    compose,
    cospan_key,
    function_to_cospan,
    identity_cospan,
    is_right_monogamous,
    iso_equal,
    symmetry_cospan,
    tensor,
)
from cmonrw.decompose import (
    factorise_into_levels,
    readback_term,
    strong_decompose,
    weak_decompose,
)
from cmonrw.dpo import (
    RewriteRule,
    enumerate_convex_matches,
    iter_rewrites,
    normalize,
    parse_rules,
    rewrite_all,
)
from cmonrw.sigterm import (
    Eta,
    Gen,
    Id,
    Mu,
    Par,
    Seq,
    Signature,
    Sym,
    Term,
    parse_signature,
    parse_term,
    pretty_print,
)
from cmonrw.translate import eval_term

__version__ = "0.1.0"

__all__ = [
    "Cospan",
    "Eta",
    "FinFunction",
    "Gen",
    "Id",
    "Mu",
    "Par",
    "RewriteRule",
    "Seq",
    "Signature",
    "Sym",
    "Term",
    "compose",
    "cospan_key",
    "enumerate_convex_matches",
    "eval_term",
    "factorise_into_levels",
    "function_to_cospan",
    "identity_cospan",
    "is_right_monogamous",
    "iso_equal",
    "iter_rewrites",
    "normalize",
    "parse_rules",
    "parse_signature",
    "parse_term",
    "pretty_print",
    "readback_term",
    "rewrite_all",
    "strong_decompose",
    "symmetry_cospan",
    "tensor",
    "weak_decompose",
]
