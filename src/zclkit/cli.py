"""Command-line front end; it and ``text``, its renderer, are the only modules with I/O.

Exit codes: 0 success, 1 validation failure or I/O error, 2 inconclusive
or uncertified (a bound, or a witness that fails verification), 3 usage
error, 4 resource ceiling or out of memory.  Reports are human text by
default and stable-ordered JSON under ``--json``; the report schema ships
in ``schemas/report.schema.json``.
``text`` renders the human reports and shares this module's I/O: it
writes to the stream ``run`` was given.

Each call runs in a fresh interpreter, so it pays for start-up, and for
compiling every module it imports, but not for shut-down: :func:`main` ends
the process once the report is flushed.  So this module imports only what
every command runs: the command line, read from one table, ``_COMMANDS``,
with argparse's rules and wording, and the errors.  The handler of a
command is in ``commands.<name>``, imported when the command runs, and it
imports what it runs: ``invariants``, ``tensor``, ``pipeline`` or
``series``.  Resolving an algebra imports ``algebra``, and ``catalog`` for
a ``builtin:`` name or ``algfile`` with ``reader`` for a file; ``text``
loads only where a report is printed without ``--json``.  So ``builtins``
and ``analyze`` never load ``algebra``, ``check`` never loads ``tensor`` or
``invariants``, and a builtin algebra never loads the file reader.  Nor
does a command load OpenSSL (``hashlib``) for its one digest,
``fractions`` and ``decimal`` unless a scalar is not an integer
(``fields`` imports ``Fraction`` on demand), ``pathlib`` or ``typing``, or
``argparse`` with its ``gettext`` and ``locale``.  ``json`` loads only
where a command reads an algebra file, to parse it: ``jsontext`` writes
every report, the builtin digest and every tensor file, so no command on
a builtin, nor ``builtins`` or ``analyze``, loads it.  Handlers call through
the module attribute (``invariants.zcl_exact``), which a caller may wrap.
No module imports this one: under ``python -m zclkit.cli`` it runs as
``__main__``, and importing it again would compile it twice.
"""

import os
import sys
from importlib import import_module
from types import SimpleNamespace

# The interpreter's builtin sha256: hashlib would load OpenSSL's _hashlib,
# about 5 ms and 2.5 MB of start-up, for the one digest of the input.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:  # a CPython built without its builtin hashes
        from hashlib import sha256

from .errors import (DEFAULT_MAX_DIM, ResourceLimitError, ValidationError, ZclkitError, parse_int,
                     power_fits, refuse)
from .jsontext import dumps

ENV_MAX_DIM = "ZCLKIT_MAX_DIM"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_RESOURCE = 4


def _default_max_dim() -> int:
    raw = os.environ.get(ENV_MAX_DIM)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = parse_int(raw)
    except ValueError:
        raise ValidationError(f"{ENV_MAX_DIM} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValidationError(f"{ENV_MAX_DIM} must be positive")
    return value


# -- the command line -------------------------------------------------------------

# What -h/--help prints; README's "CLI" section shows the same text.
SYNOPSIS = f"""\
zclkit check   <alg>                      validate and describe an algebra
zclkit cl      <alg>                      cup-length with a maximal chain
zclkit zcl     <alg> --r R [--method exact|bounds]
zclkit witness <alg> --r R                explicit witness, verified
zclkit series  <alg> --rmax N [--min-run M]
zclkit tensor  <alg> --r R --out FILE     write the r-th tensor power
zclkit analyze --seq a,b,c [--offset K] [--min-run M]
zclkit builtins

<alg> is an algebra file path or builtin:<name>.  Every command takes
--json; a command on <alg> takes --max-dim N (default {DEFAULT_MAX_DIM}, or
${ENV_MAX_DIM}).
"""

_REQUIRED = object()  # the default of an option that must be given

# An option is (name, kind, default).  Its kind is an int, the least value
# it takes; a tuple of the choices; str for free text; or bool for a flag.
_ALGEBRA_OPTIONS = (("--json", bool, False), ("--max-dim", 1, None))

# command -> (whether it takes the positional algebra, its options).  The
# options keep argparse's order, which its messages list them in.
_COMMANDS = {
    "check": (True, _ALGEBRA_OPTIONS),
    "cl": (True, _ALGEBRA_OPTIONS),
    "zcl": (True, _ALGEBRA_OPTIONS + (
        ("--r", 2, _REQUIRED), ("--method", ("exact", "bounds"), "exact"))),
    "series": (True, _ALGEBRA_OPTIONS + (("--rmax", 3, _REQUIRED), ("--min-run", 2, None))),
    "witness": (True, _ALGEBRA_OPTIONS + (("--r", 2, _REQUIRED),)),
    "tensor": (True, _ALGEBRA_OPTIONS + (("--r", 1, _REQUIRED), ("--out", str, _REQUIRED))),
    "analyze": (False, (("--seq", str, _REQUIRED), ("--offset", 0, 0),
                        ("--min-run", 2, None), ("--json", bool, False))),
    "builtins": (False, (("--json", bool, False),)),
}


class _UsageError(Exception):
    """A command line refused; args are the prog and argparse's message."""


def _read(prog: str, token: str, names):
    """How argparse reads ``token`` against the long option ``names`` (and -h).

    None for a value or a positional; otherwise (name, explicit value or
    None), where the name is None for an option no name matches.
    """
    if token[:1] != "-" or len(token) == 1:
        return None
    head, eq, explicit = token.partition("=")
    explicit = explicit if eq else None
    if head == "-h":
        head = "--help"
    if head in names:
        return head, explicit
    if token[1] == "-":
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise _UsageError(prog, f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], explicit
    elif token.startswith("-h"):
        return "--help", token[2:]
    whole, dot, frac = token[1:].partition(".")
    if (whole.isdecimal() or (dot and not whole)) and (not dot or frac.isdecimal()):
        return None  # a negative number: no option looks like one
    if " " in token:
        return None
    return None, None


def _value(prog: str, name: str, kind, text: str):
    if kind is str:
        return text
    if type(kind) is int:
        try:
            value = parse_int(text)
        except ValueError:
            raise _UsageError(prog, f"argument {name}: invalid int value: {text!r}") from None
        if value < kind:
            raise _UsageError(prog, f"argument {name}: must be at least {kind}, got {value}")
        return value
    if text not in kind:
        shown = ", ".join(map(repr, kind))
        raise _UsageError(prog, f"argument {name}: invalid choice: {text!r} (choose from {shown})")
    return text


def _refuse_explicit(prog: str, name: str, explicit) -> None:
    """A flag takes no value: ``--json=yes`` is a usage error."""
    if explicit is not None:
        shown = "-h/--help" if name == "--help" else name
        raise _UsageError(prog, f"argument {shown}: ignored explicit argument {explicit!r}")


def _parse_command(command: str, tokens: list, extras: list):
    """The arguments of ``command``, or None for --help; unread tokens go to ``extras``.

    As in argparse, every token is read before any is acted on, values are
    checked from left to right, the last repeat of an option wins, and a
    missing required argument is named before an unrecognized one.
    """
    prog = f"zclkit {command}"
    takes_algebra, options = _COMMANDS[command]
    kinds = {"--help": bool, **{name: kind for name, kind, _ in options}}
    reads = []
    for n, token in enumerate(tokens):
        if token == "--":  # every later token is a positional
            reads += ["--"] + [None] * (len(tokens) - n - 1)
            break
        reads.append(_read(prog, token, kinds))
    values = {name: default for name, _, default in options}
    algebra = algebra_at = None
    n = 0
    while n < len(tokens):
        token, read = tokens[n], reads[n]
        n += 1
        if read == "--":
            # argparse takes a -- next to the positional as part of it
            if takes_algebra and (algebra is None or algebra_at == n - 2):
                continue
            extras.append(token)
        elif read is None:
            if takes_algebra and algebra is None:
                algebra, algebra_at = token, n - 1
            else:
                extras.append(token)
        elif read[0] is None:
            extras.append(token)
        else:
            name, explicit = read
            kind = kinds[name]
            if kind is bool:
                _refuse_explicit(prog, name, explicit)
                if name == "--help":
                    return None
                values[name] = True
                continue
            if explicit is None:
                if n == len(tokens) or reads[n] is not None:
                    raise _UsageError(prog, f"argument {name}: expected one argument")
                explicit = tokens[n]
                n += 1
            values[name] = _value(prog, name, kind, explicit)
    missing = ["algebra"] if takes_algebra and algebra is None else []
    missing += [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise _UsageError(prog, f"the following arguments are required: {', '.join(missing)}")
    args = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(cmd=command, algebra=algebra, **args)


def _parse(argv: list):
    """The parsed command line, or None for -h/--help; raises _UsageError."""
    extras = []
    command = None
    for n, token in enumerate(argv):
        read = None if token == "--" else _read("zclkit", token, ("--help",))
        if read is None:
            command = token
            break
        name, explicit = read
        if name is None:
            extras.append(token)
        else:
            _refuse_explicit("zclkit", name, explicit)
            return None
    if command is None or argv[n:] == ["--"]:
        raise _UsageError("zclkit", "the following arguments are required: command")
    if command not in _COMMANDS:
        shown = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(
            "zclkit", f"argument command: invalid choice: {command!r} (choose from {shown})"
        )
    args = _parse_command(command, argv[n + 1:], extras)
    if args is not None and extras:
        raise _UsageError("zclkit", f"unrecognized arguments: {' '.join(extras)}")
    return args


# -- input resolution ------------------------------------------------------------


def _resolve_algebra(spec: str, max_dim: int):
    """Return (algebra, source info dict); accepts a path or builtin:<name>.

    A presentation whose basis exceeds ``max_dim`` is refused before it is
    validated, and a builtin one before it is built or hashed.
    """
    from .algebra import validate_algebra

    if spec.startswith("builtin:"):
        from .catalog import builtin_presentation

        name = spec[len("builtin:"):]
        pres = builtin_presentation(name, max_dim)
        canonical = dumps(pres.to_dict(), sort_keys=True).encode()
        source = {"source": spec, "sha256": sha256(canonical).hexdigest()}
    else:
        if not os.path.isfile(spec):
            raise ValidationError(f"no such algebra file: {spec}")
        try:
            with open(spec, "rb") as file:
                data = file.read()
        except OSError as exc:
            raise ValidationError(f"cannot read {spec}: {exc.strerror or exc}") from None
        from . import algfile

        path = _path_text(spec)
        pres = algfile.load_presentation(path, data)
        source = {"source": path, "sha256": sha256(data).hexdigest()}
    if not power_fits(len(pres.basis), 1, max_dim):
        refuse(f"algebra dim {len(pres.basis)} exceeds", max_dim)
    return validate_algebra(pres), source


def _path_text(spec: str) -> str:
    """``spec`` as ``str(pathlib.Path(spec))`` shows it: empty and ``.`` parts dropped."""
    root = "/" * (len(spec) - len(spec.lstrip("/")))
    root = root if root == "//" else root[:1]
    return root + "/".join(part for part in spec.split("/") if part not in ("", ".")) or "."


def _warnings_for(alg) -> list:
    warnings = []
    if alg.field.characteristic == 2:
        warnings.append(
            "characteristic-2 field: odd-degree squares are not forced to vanish; "
            "only the literal sign rule is enforced"
        )
    return warnings


def _emit(report: dict, as_json: bool, out) -> None:
    if as_json:
        out.write(dumps(report, indent=2) + "\n")
    else:
        from .text import render_text

        render_text(report, out)


# -- entry point ------------------------------------------------------------------


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    echo = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = _parse(echo)
    except _UsageError as exc:
        prog, message = exc.args
        stderr.write(f"{prog}: error: {message}\n")
        return EXIT_USAGE
    if args is None:
        stdout.write(SYNOPSIS)
        return EXIT_OK
    if getattr(args, "min_run", 0) is None:
        from .series import DEFAULT_MIN_RUN

        args.min_run = DEFAULT_MIN_RUN
    source = None
    warnings = []
    takes_algebra = _COMMANDS[args.cmd][0]
    command = import_module(f".commands.{args.cmd}", __package__)
    try:
        if takes_algebra:
            if args.max_dim is None:
                args.max_dim = _default_max_dim()
            alg, source = _resolve_algebra(args.algebra, args.max_dim)
            warnings = _warnings_for(alg)
            payload, conclusive = command.run(alg, args)
        else:
            payload, conclusive = command.run(args)
        status = EXIT_OK if conclusive else EXIT_INCONCLUSIVE
        report = {
            "command": echo,
            "input": source,
            "result": payload,
            "warnings": warnings,
            "status": status,
        }
        _emit(report, args.json, stdout)
    except ResourceLimitError as exc:
        stderr.write(f"zclkit: resource ceiling: {exc}\n")
        return EXIT_RESOURCE
    except MemoryError:
        stderr.write("zclkit: resource ceiling: out of memory\n")
        return EXIT_RESOURCE
    except ZclkitError as exc:
        stderr.write(f"zclkit: error: {exc}\n")
        return EXIT_INVALID
    return status


def main() -> None:
    """Run the command line on ``sys.argv``, then end the process at once.

    Once the report is flushed, ``os._exit`` skips interpreter teardown:
    freeing every module and a last garbage collection, which cost about
    as much as most commands' own work.  So no ``atexit`` handler runs.  A
    report that cannot be written (stdout full or closed) ends in one
    ``zclkit: error:`` line and exit 1; any other exception from ``run``
    still ends in a traceback.  To run a command and go on, call :func:`run`.
    """
    try:
        status = run()
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        status = EXIT_INVALID
        try:
            sys.stderr.write(f"zclkit: error: cannot write the report: {exc}\n")
            sys.stderr.flush()
        except OSError:
            pass  # stderr is gone too: the exit status is all that is left
    os._exit(status)


if __name__ == "__main__":
    main()
