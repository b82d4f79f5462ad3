"""JSON text as ``json.dumps`` writes it, without importing ``json``.

``json`` loads its decoder, its scanner and the scanner's regexes with its
encoder, and no command on a builtin algebra parses JSON: so reports, the
builtin digest and tensor files are written here, and ``json`` loads only
where an algebra file is read (``algfile.load_presentation``).
:func:`dumps` gives the text of ``json.dumps`` with the same ``indent``,
``sort_keys`` and ``ensure_ascii``, and its default separators, for str,
int, bool, None, list, tuple and dict values with str keys: no report
holds a float.
:func:`quote` is its string literal, which ``algfile`` writes labels with.
"""

# \b \f \n \r \t and the other control characters, the quote and the backslash
_ESCAPES = {n: f"\\u{n:04x}" for n in range(0x20)}
_ESCAPES.update({ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')})
_ASCII_ESCAPES = {**_ESCAPES, 0x7F: "\\u007f"}


def _ascii_escape(c: str) -> str:
    """A non-ASCII character as \\uXXXX, or a UTF-16 surrogate pair past the BMP."""
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000
    return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"


def quote(s: str, ensure_ascii: bool = True) -> str:
    """The JSON string literal of ``s``, as ``json.dumps(s, ensure_ascii=...)`` gives it."""
    # printable text holds no control character: only " and \ can need an escape
    if s.isprintable() and (s.isascii() or not ensure_ascii):
        if '"' in s or "\\" in s:
            s = s.translate(_ESCAPES)
        return f'"{s}"'
    if not ensure_ascii:
        return f'"{s.translate(_ESCAPES)}"'
    s = s.translate(_ASCII_ESCAPES)
    if not s.isascii():
        s = "".join(c if c < "\x80" else _ascii_escape(c) for c in s)
    return f'"{s}"'


def dumps(obj, *, indent=None, sort_keys=False, ensure_ascii=True) -> str:
    """``json.dumps(obj, indent=indent, sort_keys=sort_keys, ensure_ascii=ensure_ascii)``.

    ``indent`` is None or a number of spaces.  A dict key that is not a
    str, or a value of another type than those above, raises TypeError.
    """
    out = []
    step = " " * (indent or 0)
    sep = ", " if indent is None else ","

    def write(value, margin: str) -> None:
        if isinstance(value, str):
            out.append(quote(value, ensure_ascii))
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
                out.append(quote(key, ensure_ascii) + ": ")
                write(item, inner)
            out.append(margin + "}")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    write(obj, "" if indent is None else "\n")
    return "".join(out)
