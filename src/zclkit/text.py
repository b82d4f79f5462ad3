"""Text reports: what a command prints without ``--json``.

``cli`` imports this module only for a run that renders text, and it shares
``cli``'s I/O: it writes to the stream ``cli.run`` was given.
"""


def render_text(report: dict, out) -> None:
    payload = report["result"]
    kind = payload["kind"]
    w = out.write
    if kind == "check":
        w(f"{payload['name']}: valid; dim {payload['dim']} over {payload['field']}; "
          f"degrees {payload['degrees']}\n")
    elif kind == "cl":
        w(f"cl({payload['name']}) = {payload['value']}\n")
        if payload["chain"]:
            w("chain: " + " , ".join(payload["chain"]) + "\n")
    elif kind == "zcl":
        value = payload["value"]
        shown = value if value is not None else f"in [{payload['lower']}, {payload['upper']}]"
        w(f"zcl_{payload['r']}({payload['name']}) = {shown} ({payload['method']})\n")
        if payload["witness"]:
            w(f"witness length {payload['witness']['length']}, "
              f"verified={payload['witness']['verified']}\n")
    elif kind == "series":
        w(f"{payload['name']}: cl = {payload['cl']}\n")
        for e in payload["entries"]:
            value = e["value"] if e["value"] is not None else f"[{e['lower']}, {e['upper']}]"
            w(f"  r={e['r']}: zcl = {value} ({e['method']})\n")
        if payload["sequence"]:
            w(f"sequence t_r = zcl_(r+1), r >= {payload['sequence']['offset']}: "
              f"{payload['sequence']['values']}\n")
        if payload["analysis"]:
            an = payload["analysis"]
            w(f"verdict: {an['verdict']} (window {an['window_used']})\n")
            if an["p_coeffs"] is not None:
                w(f"P(x) = {an['p_text']}; P(1) = {an['p_at_one']}; "
                  f"equals cl: {payload['p_at_one_equals_cl']}\n")
        else:
            w("analysis skipped: some entries are uncertified bounds\n")
    elif kind == "witness":
        if payload["witness"]:
            wt = payload["witness"]
            w(f"witness for zcl_{payload['r']}({payload['name']}), "
              f"length {wt['length']}, verified={wt['verified']}\n")
            for n, f in enumerate(wt["factors"], 1):
                w(f"  factor {n}: {f}\n")
            w(f"  product over {wt['seed_r']} slots: {wt['product']}\n")
            for problem in wt["problems"]:
                w(f"  problem: {problem}\n")
        else:
            w("no witness available\n")
    elif kind == "analysis":
        w(f"verdict: {payload['verdict']} (window {payload['window_used']})\n")
        if payload["p_coeffs"] is not None:
            w(f"tail: t_r = {payload['a']}*r + {payload['d']} from r = "
              f"{payload['stabilization_index']} (within window)\n")
            w(f"P(x) = {payload['p_text']}; P(1) = {payload['p_at_one']}\n")
    elif kind == "tensor":
        w(f"wrote {payload['name']} (dim {payload['dim']}) to {payload['out']}\n")
    elif kind == "builtins":
        for name in payload["names"]:
            w(name + "\n")
    for warning in report["warnings"]:
        w(f"warning: {warning}\n")
