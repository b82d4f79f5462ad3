"""JSON text as ``json.dumps`` writes it, without importing ``json``.

``json`` loads its decoder, its scanner and the scanner's regexes with its
encoder, and no command on a builtin algebra parses JSON: so reports, the
builtin digest and tensor files are written here, and ``json`` loads only
where an algebra file is read (``algfile.load_presentation``).
:func:`dumps` gives the text of ``json.dumps`` with the same ``indent`` and
``sort_keys``, ``ensure_ascii=False`` and its default separators, for str,
int, bool, None, list, tuple and dict values with str keys: no report
holds a float.  That is the one dialect zclkit writes; the builtin digest
hashes printable ASCII, for which ``ensure_ascii`` changes no byte.
:func:`quote` is its string literal, which ``algfile`` writes labels with.
"""

# \b \f \n \r \t and the other control characters, the quote and the backslash
_ESCAPES = {n: f"\\u{n:04x}" for n in range(0x20)}
_ESCAPES.update({ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')})


def quote(s: str) -> str:
    """The JSON string literal of ``s``, as ``json.dumps(s, ensure_ascii=False)`` gives it."""
    # printable text holds no control character: only " and \ can need an escape
    if s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return f'"{s.translate(_ESCAPES)}"'


def dumps(obj, *, indent=None, sort_keys=False) -> str:
    """``json.dumps(obj, indent=indent, sort_keys=sort_keys, ensure_ascii=False)``.

    ``indent`` is None or a number of spaces.  A dict key that is not a
    str, or a value of another type than those above, raises TypeError.
    """
    out = []
    step = " " * (indent or 0)
    sep = ", " if indent is None else ","

    def write(value, margin: str) -> None:
        if isinstance(value, str):
            out.append(quote(value))
        elif value is None:
            out.append("null")
        elif value is True:
            out.append("true")
        elif value is False:
            out.append("false")
        elif isinstance(value, int):
            out.append(int.__repr__(value))
        elif isinstance(value, (list, tuple)):
            if not value:
                out.append("[]")
                return
            inner = margin + step
            out.append("[" + inner)
            for n, item in enumerate(value):
                if n:
                    out.append(sep + inner)
                write(item, inner)
            out.append(margin + "]")
        elif isinstance(value, dict):
            if not value:
                out.append("{}")
                return
            items = sorted(value.items()) if sort_keys else value.items()
            inner = margin + step
            out.append("{" + inner)
            for n, (key, item) in enumerate(items):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                if n:
                    out.append(sep + inner)
                out.append(quote(key) + ": ")
                write(item, inner)
            out.append(margin + "}")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    write(obj, "" if indent is None else "\n")
    return "".join(out)
