"""JSON wire formats beyond the bialgebra description.

Rational scalars travel as "a/b" or "a" strings, prime-field scalars as
integers in [0, p). Matrices are {"rows": r, "cols": c, "entries":
[[i, j, v], ...]}. These formats are the unit of CLI ingestion and of the
--dump output; emission always sorts keys so reports are byte-reproducible.
"""

import json

from .equivariant import ModuleCoalgebra
from .errors import ParseError
from .hopf import desc_from_json, matrix_from_json, matrix_to_json, parse_index


def load_json(path):
    """The JSON document in the file ``path``; a file unread or not JSON raises ParseError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or text that does not decode
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_object(path):
    """:func:`load_json`, refusing a document that is not a JSON object."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object, got {json.dumps(doc)[:40]}")
    return doc


def _desc_inline_or_file(value):
    """Bialgebra descriptions may be inline documents or file paths."""
    return desc_from_json(load_object(value) if isinstance(value, str) else value)


def module_coalgebra_from_json(doc):
    try:
        over = _desc_inline_or_file(doc["over"])
        base = _desc_inline_or_file(doc["base"])
        f = over.field
        n = base.dim
        action_entries = [
            (parse_index(cp, n), parse_index(b, over.dim) * n + parse_index(c, n), f.parse(v))
            for b, c, cp, v in doc["action"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed module-coalgebra document: {exc}") from exc
    from .linalg import Matrix

    action = Matrix.from_entries(f, n, over.dim * n, action_entries)
    return ModuleCoalgebra(base, over, action)


def ses_from_json(doc):
    try:
        mc = module_coalgebra_from_json(doc["C"])
        K = matrix_from_json(mc.base.field, doc["K"])
        mode = doc["mode"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed SES document: {exc}") from exc
    from .equivariant import quotient_ses

    return quotient_ses(mc, K, mode)


def dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=1)


def complex_dump(labelled_complexes):
    """Serializable record of graded complexes: dims, sparse maps, certificates."""
    out = {}
    for label, cx in labelled_complexes.items():
        out[label] = {
            "orientation": cx.orientation,
            "dims": list(cx.dims),
            "differentials": {str(n): matrix_to_json(d) for n, d in sorted(cx.diffs.items())},
            "certificate": {"d_squared_zero": True,
                            "max_valid_degree": cx.max_valid_degree},
        }
    return out
