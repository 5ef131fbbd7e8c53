"""Command line front end.

Every computing command accepts --format json|text (tables add csv).
JSON output is deterministic: keys are sorted and timing data is only
included when --timing is passed, so identical inputs give identical
bytes.  As text, a certificate prints its claim, witness, chain rule
ids, notes and digest, one per line.  Exit codes: 0 for an exact
result, 2 when the best obtainable answer is a bracket, 1 for usage
errors, failed verification or an exhausted search budget.  Every
error the library raises is a usage error: `Error: <message>` on
stderr, with no traceback.  `bound all --inputs` reads D as a positive
int and each threshold as an int or "inf", as certificates read values.
"""

import json
import sys
import time
from contextlib import contextmanager
from typing import Optional

import click

from .arith import parse_value, serialize_value
from .bounds import BoundConsistencyError, KnownValues, collect_bounds
from .constructions import elb_witness, maxfull_factorization, paige_bijection
from .groups import format_group, parse_group, profile
from .invariants import (
    Certificate,
    SearchError,
    davenport,
    davenport_k,
    eta,
    s_le,
    stabilization,
    verify_certificate,
)
from .sequences import format_sequence, sequence_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BRACKET = 2


class _CliError(click.ClickException):
    exit_code = EXIT_USAGE


# ValueError covers BoundError, CertificateError, GroupError and SequenceError
_LIBRARY_ERRORS = (SearchError, BoundConsistencyError, ValueError)


@contextmanager
def _usage_errors(prefix: str = "", also: tuple = ()):
    """Report a library error, or one of `also`, as a usage error: exit 1
    and `Error: <prefix><message>` on stderr, with no traceback."""
    try:
        yield
    except _LIBRARY_ERRORS + also as exc:
        raise _CliError(prefix + str(exc))


def _start_clock(ctx, param, timing: bool) -> Optional[float]:
    """The value of --timing: when its command started, or None."""
    return time.time() if timing else None


def _respond(fmt: str, payload: dict, lines: list, started: Optional[float] = None,
             code: int = EXIT_OK) -> int:
    """Print payload as JSON, or lines as text (or csv), and return the exit code.

    A payload's `verified` check prints as text too, with its problems,
    and exits 1 when it failed; otherwise the exit code is `code`. Under
    --timing, `elapsed_ms` joins the payload and ends the text lines.
    """
    if "verified" in payload:
        lines.append("verified: %s" % ("yes" if payload["verified"] else "no"))
        lines.extend("problem: %s" % item for item in payload.get("problems", ()))
    if started is not None:
        payload["elapsed_ms"] = int((time.time() - started) * 1000)
        if fmt == "text":
            lines.append("elapsed_ms: %d" % payload["elapsed_ms"])
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            click.echo(line)
    return EXIT_USAGE if payload.get("verified") is False else code


def _parse_group_arg(text: str):
    return parse_group("" if text.strip() == "1" else text)


def _load_json_file(path: str):
    with _usage_errors("cannot read %s: " % path, (OSError,)):
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)


def _span(lo: int, hi: int) -> str:
    return "%d" % lo if lo == hi else "%d..%d" % (lo, hi)


def _cert_lines(cert: Certificate) -> list:
    label = cert.constant
    if cert.constant == "D_k":
        label = "D_%d" % cert.k
    elif cert.constant == "s_le":
        label = "s_le_%d" % cert.k
    name = "%s(%s)" % (label, format_group(cert.group))
    lines = []
    if cert.value is not None:
        lines.append("%s = %s" % (name, cert.value))
    else:
        lines.append("%s in [%d, %d]" % (name, cert.interval[0], cert.interval[1]))
    if cert.witness is not None:
        lines.append(
            "witness: %s  (length %d, rule %s)"
            % (format_sequence(cert.witness), cert.witness.length, cert.witness_check["rule"])
        )
    lines.append("chain: %s" % " -> ".join(step.rule_id for step in cert.upper_chain))
    for note in cert.notes:
        lines.append("note: %s" % note)
    lines.append("digest: %s" % cert.digest())
    return lines


def _respond_certificate(cert: Certificate, fmt: str, started: Optional[float],
                         do_verify: bool) -> int:
    payload = cert.to_json()
    if do_verify:
        result = verify_certificate(cert)
        payload["verified"] = result.ok
        if result.problems:
            payload["problems"] = list(result.problems)
    return _respond(fmt, payload, _cert_lines(cert), started,
                    EXIT_OK if cert.value is not None else EXIT_BRACKET)


_FMT = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="text",
    show_default=True, help="Output format.")
_TIMING = click.option("--timing", "started", is_flag=True, callback=_start_clock,
                       help="Include wall-clock time.")
_BUDGET = click.option("--budget", type=click.IntRange(min=1), default=None,
                       help="Search node budget override.")
_VERIFY = click.option("--verify", "do_verify", is_flag=True,
                       help="Re-check the certificate before printing it.")


@click.group()
def cli() -> None:
    """Exact values, bounds and constructions for zero-sum block constants."""


@cli.group("group")
def group_cmds() -> None:
    """Inspect finite abelian groups."""


@group_cmds.command("info")
@click.option("--group", "group_text", required=True, help="Group literal, e.g. 2^4 or 3,9.")
@_FMT
def info_cmd(group_text: str, fmt: str) -> int:
    """Structural profile of a finite abelian group."""
    G = _parse_group_arg(group_text)
    prof = profile(G)
    payload = {
        "group": format_group(G),
        "invariant_factors": list(G.invariant_factors),
        "order": prof.order,
        "exponent": prof.exponent,
        "rank": prof.rank,
        "layered_lower": prof.d_star,
        "truncated_factors": list(prof.minus_factors),
    }
    return _respond(fmt, payload, ["%s: %s" % item for item in payload.items()])


@cli.group("compute")
def compute_group() -> None:
    """Compute a constant, returning a certificate."""


@compute_group.command("davenport")
@click.option("--group", "group_text", required=True)
@_BUDGET
@_FMT
@_TIMING
@_VERIFY
def compute_davenport(group_text: str, budget: Optional[int], fmt: str,
                      started: Optional[float], do_verify: bool) -> int:
    """Longest zero-sum sequence with no proper zero-sum prefix removed."""
    G = _parse_group_arg(group_text)
    return _respond_certificate(davenport(G, budget=budget), fmt, started, do_verify)


@compute_group.command("dk")
@click.option("--group", "group_text", required=True)
@click.option("--k", "k", type=int, required=True,
              help="Cap on disjoint zero-sum blocks.")
@_BUDGET
@_FMT
@_TIMING
@_VERIFY
def compute_dk(group_text: str, k: int, budget: Optional[int], fmt: str,
               started: Optional[float], do_verify: bool) -> int:
    """Longest sequence splittable into at most k disjoint zero-sum blocks."""
    if k < 1:
        raise _CliError("k must be at least 1")
    G = _parse_group_arg(group_text)
    return _respond_certificate(davenport_k(G, k, budget=budget), fmt, started, do_verify)


@compute_group.command("sle")
@click.option("--group", "group_text", required=True)
@click.option("--k", "k", type=int, required=True,
              help="Length cap for the forbidden zero-sum subsequences.")
@_BUDGET
@_FMT
@_TIMING
@_VERIFY
def compute_sle(group_text: str, k: int, budget: Optional[int], fmt: str,
                started: Optional[float], do_verify: bool) -> int:
    """Threshold length forcing a zero-sum subsequence of length <= k."""
    if k < 1:
        raise _CliError("k must be at least 1")
    G = _parse_group_arg(group_text)
    return _respond_certificate(s_le(G, k, budget=budget), fmt, started, do_verify)


@compute_group.command("eta")
@click.option("--group", "group_text", required=True)
@_BUDGET
@_FMT
@_TIMING
@_VERIFY
def compute_eta(group_text: str, budget: Optional[int], fmt: str,
                started: Optional[float], do_verify: bool) -> int:
    """Threshold length forcing a zero-sum subsequence of length <= exponent."""
    G = _parse_group_arg(group_text)
    return _respond_certificate(eta(G, budget=budget), fmt, started, do_verify)


@compute_group.command("stabilize")
@click.option("--group", "group_text", required=True)
@click.option("--kmax", type=int, required=True,
              help="Largest block cap to tabulate.")
@_BUDGET
@_FMT
@_TIMING
def compute_stabilize(group_text: str, kmax: int, budget: Optional[int], fmt: str,
                      started: Optional[float]) -> int:
    """Detect the onset of linear growth across a table of block constants."""
    if kmax < 1:
        raise _CliError("kmax must be at least 1")
    G = _parse_group_arg(group_text)
    report = stabilization(G, kmax, budget=budget)
    lines = ["group: %s" % format_group(report.group)]
    lines += ["k=%d: %s" % (k, _span(lo, hi)) for k, lo, hi in report.rows]
    lines += [
        "offset: %s" % report.d0,
        "onset: %s" % report.k_onset,
        "certified: %s" % ("yes" if report.certified else "no"),
        "method: %s" % report.method,
    ]
    exact = all(lo == hi for _, lo, hi in report.rows)
    return _respond(fmt, report.to_json(), lines, started, EXIT_OK if exact else EXIT_BRACKET)


@cli.group("bound")
def bound_group() -> None:
    """Evaluate bound rules without running searches."""


def _known_values(path: str) -> KnownValues:
    """The --inputs file: D an int >= 1, each threshold an int or "inf"
    under a decimal level, read as certificates read a value."""
    raw = _load_json_file(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("s_le", {}), dict):
        raise _CliError("--inputs must be an object whose s_le is an object")
    known = KnownValues()
    if "D" in raw:
        if type(raw["D"]) is not int or raw["D"] < 1:
            raise _CliError("--inputs D must be a positive int, not %r" % (raw["D"],))
        known.D = raw["D"]
    for key, val in raw.get("s_le", {}).items():
        if not (key.isascii() and key.isdigit()):
            raise _CliError("--inputs s_le level must be a decimal int, not %r" % (key,))
        with _usage_errors("--inputs s_le level %s: " % key):
            known.s_le[int(key)] = parse_value(val)
    return known


@bound_group.command("all")
@click.option("--group", "group_text", required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--inputs", "inputs_path", default=None,
              help="JSON file with known values: {\"D\": int, \"s_le\": {\"len\": value}}.")
@_FMT
@_TIMING
def bound_all(group_text: str, k: int, inputs_path: Optional[str], fmt: str,
              started: Optional[float]) -> int:
    """Every applicable bound on the k-block constant from supplied inputs."""
    if k < 1:
        raise _CliError("k must be at least 1")
    G = _parse_group_arg(group_text)
    known = KnownValues() if inputs_path is None else _known_values(inputs_path)
    reports = collect_bounds(G, k, known)
    payload = {"group": format_group(G), "k": k, "bounds": [rep.to_json() for rep in reports]}
    lines = ["%-5s %-18s %s" % (rep.direction, rep.rule_id, serialize_value(rep.value))
             for rep in reports]
    return _respond(fmt, payload, lines, started)


@cli.group("construct")
def construct_group() -> None:
    """Build explicit extremal objects."""


@construct_group.command("elb-witness")
@click.option("--group", "group_text", required=True)
@click.option("--s", "s", type=int, required=True,
              help="Number of blended index pairs.")
@click.option("--t", "t", type=int, required=True,
              help="Number of trailing coordinates left plain.")
@click.option("--k", "k", type=int, required=True)
@click.option("--verify", "do_verify", is_flag=True,
              help="Check the disjoint zero-sum packing stays below k.")
@_FMT
def construct_elb(group_text: str, s: int, t: int, k: int, do_verify: bool,
                  fmt: str) -> int:
    """Long sequence whose disjoint zero-sum packing stays below k."""
    from .factorizations import max_disjoint_zero_sums

    G = _parse_group_arg(group_text)
    witness = elb_witness(G, s, t, k)
    payload = {
        "group": format_group(G),
        "s": s,
        "t": t,
        "k": k,
        "witness": sequence_to_json(witness),
        "length": witness.length,
        "lower_bound": witness.length + 1,
    }
    if do_verify:
        packing = max_disjoint_zero_sums(witness)
        payload["verified"] = packing <= k - 1
        payload["max_disjoint"] = packing
    lines = [
        "witness: %s" % format_sequence(witness),
        "length: %d" % witness.length,
        "lower_bound: %d" % payload["lower_bound"],
    ]
    return _respond(fmt, payload, lines)


@construct_group.command("paige")
@click.option("--rank", type=int, required=True)
@click.option("--verify", "do_verify", is_flag=True,
              help="Check bijectivity and that doubling g + image(g) is onto.")
@_FMT
def construct_paige(rank: int, do_verify: bool, fmt: str) -> int:
    """Self-map of a rank-r elementary 2-group with surjective doubling."""
    table = paige_bijection(rank)
    pairs = [[list(g), list(img)] for g, img in sorted(table.items())]
    payload = {"rank": rank, "pairs": pairs}
    if do_verify:
        images = {tuple(img) for _, img in pairs}
        doubled = {tuple(a ^ b for a, b in zip(g, img)) for g, img in pairs}
        payload["verified"] = len(images) == len(pairs) and len(doubled) == len(pairs)
    lines = ["%s -> %s" % ("".join(map(str, g)), "".join(map(str, img))) for g, img in pairs]
    return _respond(fmt, payload, lines)


@construct_group.command("maxfull")
@click.option("--rank", type=int, required=True)
@click.option("--verify", "do_verify", is_flag=True,
              help="Check the blocks partition the full squarefree sequence.")
@_FMT
def construct_maxfull(rank: int, do_verify: bool, fmt: str) -> int:
    """Split the full squarefree sequence into the most zero-sum blocks."""
    fact = maxfull_factorization(rank)
    payload = {"rank": rank, "blocks": fact.length, "atoms": fact.to_json()}
    if do_verify:
        # atom minimality is enforced on construction; re-check the product
        product = fact.product()
        full = (1 << rank) - 1
        ok = product.length == full and product.is_squarefree()
        ok = ok and not product.contains_zero()
        ok = ok and fact.length == full // 3
        payload["verified"] = ok
    lines = ["blocks: %d" % fact.length]
    for atom, mult in fact.atoms:
        text = format_sequence(atom)
        lines.append(text if mult == 1 else "%s  x%d" % (text, mult))
    return _respond(fmt, payload, lines)


@cli.group("table")
def table_group() -> None:
    """Tabulate a constant over a range of block caps."""


@table_group.command("dk")
@click.option("--group", "group_text", required=True)
@click.option("--kmax", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text", "csv"]),
              default="text", show_default=True)
@_BUDGET
@_TIMING
def table_dk(group_text: str, kmax: int, fmt: str, budget: Optional[int],
             started: Optional[float]) -> int:
    """Block constants for k = 1..kmax with growth steps."""
    if kmax < 1:
        raise _CliError("kmax must be at least 1")
    G = _parse_group_arg(group_text)
    exp = G.exponent
    rows = []
    for k in range(1, kmax + 1):
        cert = davenport_k(G, k, budget=budget)
        row = {"k": k, "lo": cert.lower, "hi": cert.upper,
               "certified": verify_certificate(cert).ok}
        if rows:
            row["step_lo"] = cert.lower - rows[-1]["hi"]
            row["step_hi"] = cert.upper - rows[-1]["lo"]
        rows.append(row)
    report = stabilization(G, kmax, budget=budget).to_json()
    summary = {key: report[key] for key in ("d0", "k_onset", "certified", "method")}
    payload = {"group": format_group(G), "exponent": exp, "rows": rows,
               "stabilization": summary}
    steps = [_span(row["step_lo"], row["step_hi"]) if "step_lo" in row else "" for row in rows]
    if fmt == "csv":
        lines = ["k,dk,dk_minus_kexp,step,certified"] + [
            "%d,%s,%s,%s,%s"
            % (row["k"], _span(row["lo"], row["hi"]),
               _span(row["lo"] - row["k"] * exp, row["hi"] - row["k"] * exp), step,
               "true" if row["certified"] else "false")
            for row, step in zip(rows, steps)
        ]
    else:
        lines = ["group: %s  exponent: %d" % (format_group(G), exp)] + [
            "k=%d: %s%s%s"
            % (row["k"], _span(row["lo"], row["hi"]), step and "  step " + step,
               "" if row["certified"] else "  [unverified]")
            for row, step in zip(rows, steps)
        ]
        lines.append("stabilization: offset %s from k=%s, certified %s"
                     % (summary["d0"], summary["k_onset"],
                        "yes" if summary["certified"] else "no"))
    exact = all(row["lo"] == row["hi"] for row in rows)
    return _respond(fmt, payload, lines, started, EXIT_OK if exact else EXIT_BRACKET)


@cli.command("verify")
@click.option("--cert", "cert_path", required=True,
              help="Certificate JSON file to re-check.")
@_BUDGET
@_FMT
def verify_cmd(cert_path: str, budget: Optional[int], fmt: str) -> int:
    """Re-verify a stored certificate from its serialized form alone."""
    raw = _load_json_file(cert_path)
    with _usage_errors("malformed certificate: ", (KeyError, TypeError)):
        cert = Certificate.from_json(raw)
    result = verify_certificate(cert, budget=budget)
    lines = ["ok" if result.ok else "FAILED"] + ["problem: %s" % item for item in result.problems]
    return _respond(fmt, {"ok": result.ok, "problems": list(result.problems)}, lines,
                    code=EXIT_OK if result.ok else EXIT_USAGE)


def main(argv=None) -> None:
    try:
        with _usage_errors():
            rv = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except click.Abort:
        sys.exit(EXIT_USAGE)
    sys.exit(rv if isinstance(rv, int) else EXIT_OK)


if __name__ == "__main__":
    main()
