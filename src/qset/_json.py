"""The package's one JSON writer for indented documents.

``dumps(doc)`` returns exactly what the stdlib's ``json.dumps`` returns
with an indent of 2 and its other defaults (``ensure_ascii`` included)
for the types the package emits: dicts with ``str`` keys, lists,
tuples, ``str``, ``int``, ``bool`` and ``None``.  A node of any other
type that has a ``_write_json(newline, out)`` method writes itself:
``ClosureReport`` and ``Fragment`` append to ``out`` the bytes that
``json.dumps(x.to_dict(), indent=2)`` gives, starting at the
newline-plus-indent ``newline`` they are handed, so they write the same
bytes at the top of a document and nested in a CLI envelope.  Their
defects and ledger entries have fixed shapes, so they are written from
key literals with no dict built; ``to_dict`` stays their public form
and the tests' oracle.  Anything else raises ``TypeError``: non-``str``
keys, floats, sets and objects without the hook included, which the
stdlib would coerce or reject.

The stdlib uses its C encoder only when ``indent`` is None; with an
indent every document goes through a pure-Python generator encoder that
pays one generator frame per nesting level for each chunk.  Here one
recursive function appends to a single list, carries the current
newline-plus-indent string down the recursion, and encodes every string,
keys included, with the stdlib's C ``encode_basestring_ascii``, so the
bytes stay the stdlib's.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode_str

__all__ = ["dumps"]


def dumps(doc) -> str:
    """Serialize ``doc`` as ``json.dumps`` with an indent of 2 would."""
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)


class Encodings(dict):
    """A memo from each ``str`` looked up to its encoding, for a writer
    that meets the same texts many times."""

    def __missing__(self, text: str) -> str:
        self[text] = encoded = _encode_str(text)
        return encoded


def _write(o, newline: str, out: list[str]) -> None:
    """Append the encoding of ``o`` to ``out``; ``newline`` is a newline
    plus the indent of the line ``o`` starts on."""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        after = "," + inner
        for v in o:
            if isinstance(v, str):
                out.append(sep + _encode_str(v))
            else:
                out.append(sep)
                _write(v, inner, out)
            sep = after
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        after = "," + inner
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError("JSON object keys must be str, not %s" % type(k).__name__)
            if isinstance(v, str):
                out.append(sep + _encode_str(k) + ": " + _encode_str(v))
            else:
                out.append(sep + _encode_str(k) + ": ")
                _write(v, inner, out)
            sep = after
        out.append(newline + "}")
    else:
        write = getattr(o, "_write_json", None)
        if write is None:
            raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)
        write(newline, out)
