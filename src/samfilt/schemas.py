"""JSON schemas for the machine-readable CLI output (--json).

One schema per subcommand, keyed by the command name.  The schemas use
the standard JSON-Schema vocabulary (draft 2020-12 compatible subset:
type / properties / required / items / enum / additionalProperties), so
any off-the-shelf validator can check CLI output against them.
"""

_SCALAR = {"type": "string"}  # exact scalar grammar: "p/q", "(p+q*sqrt(d))/r", "inf"

_EXPONENT = {"type": "array", "items": {"type": "integer", "minimum": 0}}

_IDEAL = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "gens": {"type": "array", "items": _EXPONENT},
    },
    "required": ["n", "gens"],
    "additionalProperties": False,
}

_LEVELS = {
    "type": "array",
    "items": {
        "type": "array",
        "prefixItems": [{"type": "integer"}, _IDEAL],
        "minItems": 2,
        "maxItems": 2,
    },
}

# the filtration grammar is recursive (twists wrap a base), so the schema
# keeps the base open-ended
_FILTRATION = {
    "type": "object",
    "properties": {"type": {"enum": ["adic", "dv", "twist", "stair1", "table"]}},
    "required": ["type"],
}

_NUBAR = {
    "type": "object",
    "properties": {
        "value": _SCALAR,
        "kind": {"enum": ["exact", "lower_bound"]},
        "witness_n": {"type": ["integer", "null"]},
        "truncated": {"type": "boolean"},
    },
    "required": ["value", "kind", "witness_n", "truncated"],
    "additionalProperties": False,
}

_PAIRS = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {"w": _EXPONENT, "a": _SCALAR},
        "required": ["w", "a"],
        "additionalProperties": False,
    },
}


def _tabulated(command):
    """Levels 1..m_max of a computed filtration (k and ic)."""
    return {
        "type": "object",
        "properties": {
            "command": {"const": command},
            "m_max": {"type": "integer"},
            "levels": _LEVELS,
            "filtration": _FILTRATION,
        },
        "required": ["command", "m_max", "levels", "filtration"],
        "additionalProperties": False,
    }


SCHEMAS = {
    "nu": {
        "type": "object",
        "properties": {
            "command": {"const": "nu"},
            "kind": {"enum": ["finite", "infinite", "at_least"]},
            "value": {"type": ["integer", "null"]},
        },
        "required": ["command", "kind", "value"],
        "additionalProperties": False,
    },
    "nubar": {
        "type": "object",
        "properties": {"command": {"const": "nubar"}, "result": _NUBAR},
        "required": ["command", "result"],
        "additionalProperties": False,
    },
    "twist": {
        "type": "object",
        "properties": {
            "command": {"const": "twist"},
            "filtration": _FILTRATION,
            "levels": _LEVELS,
        },
        "required": ["command", "filtration"],
        "additionalProperties": False,
    },
    "bracket": {
        "type": "object",
        "properties": {
            "command": {"const": "bracket"},
            "filtration": _FILTRATION,
            "levels": _LEVELS,
        },
        "required": ["command", "filtration"],
        "additionalProperties": False,
    },
    "k": _tabulated("k"),
    "ic": _tabulated("ic"),
    "equiv": {
        "type": "object",
        "properties": {
            "command": {"const": "equiv"},
            "equivalent": {"type": "boolean"},
            "alpha": {"type": ["string", "null"]},
            "counterexample": {"type": ["array", "null"], "items": {"type": "integer"}},
        },
        "required": ["command", "equivalent", "alpha", "counterexample"],
        "additionalProperties": False,
    },
    "recover": {
        "type": "object",
        "properties": {"command": {"const": "recover"}, "pairs": _PAIRS},
        "required": ["command", "pairs"],
        "additionalProperties": False,
    },
    "mult": {
        "type": "object",
        "properties": {
            "command": {"const": "mult"},
            "exact": {"type": ["string", "null"]},
            "estimate": {"type": ["string", "null"]},
            "n_max": {"type": ["integer", "null"]},
            "series": {
                "type": ["object", "null"],
                "properties": {
                    "d": {"type": "integer"},
                    "samples": {
                        "type": "array",
                        "items": {"type": "array", "items": {"type": "integer"}},
                    },
                },
                "required": ["d", "samples"],
            },
        },
        "required": ["command", "exact", "estimate", "n_max", "series"],
        "additionalProperties": False,
    },
    "val": {
        "type": "object",
        "properties": {
            "command": {"const": "val"},
            "result": {
                "type": "object",
                "properties": {
                    "exact": {"type": ["string", "null"]},
                    "upper": _SCALAR,
                    "upper_n": {"type": "integer"},
                },
                "required": ["exact", "upper", "upper_n"],
                "additionalProperties": False,
            },
        },
        "required": ["command", "result"],
        "additionalProperties": False,
    },
    "sat": {
        "type": "object",
        "properties": {
            "command": {"const": "sat"},
            "report": {
                "type": "object",
                "properties": {
                    "valuations": {"type": "array", "items": _EXPONENT},
                    "values": {"type": "array", "items": _SCALAR},
                    "rows": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "n": {"type": "integer"},
                                "sat": _IDEAL,
                                "contained": {"type": "boolean"},
                                "equal": {"type": "boolean"},
                            },
                            "required": ["n", "sat", "contained", "equal"],
                            "additionalProperties": False,
                        },
                    },
                },
                "required": ["valuations", "values", "rows"],
                "additionalProperties": False,
            },
        },
        "required": ["command", "report"],
        "additionalProperties": False,
    },
    "rees1": {
        "type": "object",
        "properties": {
            "command": {"const": "rees1"},
            "integral": {"type": "boolean"},
            "witness": {"type": ["integer", "null"]},
        },
        "required": ["command", "integral", "witness"],
        "additionalProperties": False,
    },
}
