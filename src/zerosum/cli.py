"""Command line front end.

Every computing command accepts --format json|text (tables add csv).
JSON output is deterministic: keys are sorted and timing data is only
included when --timing is passed, so identical inputs give identical
bytes.  As text, a certificate prints its claim, witness, chain rule
ids, notes and digest, one per line.  Exit codes: 0 for an exact
result, 2 when the best obtainable answer is a bracket, 1 for usage
errors, failed verification or an exhausted search budget.
"""

import json
import sys
import time
from typing import Optional

import click

from .arith import INFINITE, serialize_value
from .bounds import BoundError, KnownValues, collect_bounds
from .constructions import elb_witness, maxfull_factorization, paige_bijection
from .groups import GroupError, format_group, parse_group, profile
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
from .sequences import SequenceError, format_sequence, sequence_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BRACKET = 2


class _CliError(click.ClickException):
    exit_code = EXIT_USAGE


def _parse_group_arg(text: str):
    if text.strip() == "1":
        return parse_group("")
    try:
        return parse_group(text)
    except GroupError as exc:
        raise _CliError(str(exc))


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise _CliError("cannot read %s: %s" % (path, exc))


def _emit_json(payload) -> None:
    click.echo(json.dumps(payload, sort_keys=True))


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


def _finish_certificate(cert: Certificate, fmt: str, timing: bool, started: float,
                        do_verify: bool) -> int:
    verified: Optional[bool] = None
    problems: list = []
    if do_verify:
        result = verify_certificate(cert)
        verified = result.ok
        problems = list(result.problems)
    elapsed = int((time.time() - started) * 1000) if timing else None
    if fmt == "json":
        payload = cert.to_json(elapsed_ms=elapsed)
        if verified is not None:
            payload["verified"] = verified
            if problems:
                payload["problems"] = problems
        _emit_json(payload)
    else:
        for line in _cert_lines(cert):
            click.echo(line)
        if verified is not None:
            click.echo("verified: %s" % ("yes" if verified else "no"))
            for item in problems:
                click.echo("problem: %s" % item)
        if elapsed is not None:
            click.echo("elapsed_ms: %d" % elapsed)
    if verified is False:
        return EXIT_USAGE
    return EXIT_OK if cert.value is not None else EXIT_BRACKET


_FMT = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="text",
    show_default=True, help="Output format.")
_TIMING = click.option("--timing", is_flag=True, help="Include wall-clock time.")
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
    if fmt == "json":
        _emit_json(payload)
    else:
        for key in ("group", "invariant_factors", "order", "exponent", "rank",
                    "layered_lower", "truncated_factors"):
            click.echo("%s: %s" % (key, payload[key]))
    return EXIT_OK


@cli.group("compute")
def compute_group() -> None:
    """Compute a constant, returning a certificate."""


def _run_certificate(fn, fmt: str, timing: bool, do_verify: bool) -> int:
    started = time.time()
    try:
        cert = fn()
    except (SearchError, BoundError, SequenceError, GroupError, ValueError) as exc:
        raise _CliError(str(exc))
    return _finish_certificate(cert, fmt, timing, started, do_verify)


@compute_group.command("davenport")
@click.option("--group", "group_text", required=True)
@_BUDGET
@_FMT
@_TIMING
@_VERIFY
def compute_davenport(group_text: str, budget: Optional[int], fmt: str,
                      timing: bool, do_verify: bool) -> int:
    """Longest zero-sum sequence with no proper zero-sum prefix removed."""
    G = _parse_group_arg(group_text)
    return _run_certificate(lambda: davenport(G, budget=budget), fmt, timing, do_verify)


@compute_group.command("dk")
@click.option("--group", "group_text", required=True)
@click.option("--k", "k", type=int, required=True,
              help="Cap on disjoint zero-sum blocks.")
@_BUDGET
@_FMT
@_TIMING
@_VERIFY
def compute_dk(group_text: str, k: int, budget: Optional[int], fmt: str,
               timing: bool, do_verify: bool) -> int:
    """Longest sequence splittable into at most k disjoint zero-sum blocks."""
    if k < 1:
        raise _CliError("k must be at least 1")
    G = _parse_group_arg(group_text)
    return _run_certificate(lambda: davenport_k(G, k, budget=budget), fmt, timing, do_verify)


@compute_group.command("sle")
@click.option("--group", "group_text", required=True)
@click.option("--k", "k", type=int, required=True,
              help="Length cap for the forbidden zero-sum subsequences.")
@_BUDGET
@_FMT
@_TIMING
@_VERIFY
def compute_sle(group_text: str, k: int, budget: Optional[int], fmt: str,
                timing: bool, do_verify: bool) -> int:
    """Threshold length forcing a zero-sum subsequence of length <= k."""
    if k < 1:
        raise _CliError("k must be at least 1")
    G = _parse_group_arg(group_text)
    return _run_certificate(lambda: s_le(G, k, budget=budget), fmt, timing, do_verify)


@compute_group.command("eta")
@click.option("--group", "group_text", required=True)
@_BUDGET
@_FMT
@_TIMING
@_VERIFY
def compute_eta(group_text: str, budget: Optional[int], fmt: str,
                timing: bool, do_verify: bool) -> int:
    """Threshold length forcing a zero-sum subsequence of length <= exponent."""
    G = _parse_group_arg(group_text)
    return _run_certificate(lambda: eta(G, budget=budget), fmt, timing, do_verify)


@compute_group.command("stabilize")
@click.option("--group", "group_text", required=True)
@click.option("--kmax", type=int, required=True,
              help="Largest block cap to tabulate.")
@_BUDGET
@_FMT
@_TIMING
def compute_stabilize(group_text: str, kmax: int, budget: Optional[int], fmt: str,
                      timing: bool) -> int:
    """Detect the onset of linear growth across a table of block constants."""
    if kmax < 1:
        raise _CliError("kmax must be at least 1")
    G = _parse_group_arg(group_text)
    started = time.time()
    try:
        report = stabilization(G, kmax, budget=budget)
    except (SearchError, BoundError, ValueError) as exc:
        raise _CliError(str(exc))
    elapsed = int((time.time() - started) * 1000) if timing else None
    if fmt == "json":
        payload = report.to_json()
        if elapsed is not None:
            payload["elapsed_ms"] = elapsed
        _emit_json(payload)
    else:
        click.echo("group: %s" % format_group(report.group))
        for k, lo, hi in report.rows:
            click.echo("k=%d: %s" % (k, _span(lo, hi)))
        click.echo("offset: %s" % report.d0)
        click.echo("onset: %s" % report.k_onset)
        click.echo("certified: %s" % ("yes" if report.certified else "no"))
        click.echo("method: %s" % report.method)
        if elapsed is not None:
            click.echo("elapsed_ms: %d" % elapsed)
    if any(lo != hi for _, lo, hi in report.rows):
        return EXIT_BRACKET
    return EXIT_OK


@cli.group("bound")
def bound_group() -> None:
    """Evaluate bound rules without running searches."""


@bound_group.command("all")
@click.option("--group", "group_text", required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--inputs", "inputs_path", default=None,
              help="JSON file with known values: {\"D\": int, \"s_le\": {\"len\": value}}.")
@_FMT
@_TIMING
def bound_all(group_text: str, k: int, inputs_path: Optional[str], fmt: str,
              timing: bool) -> int:
    """Every applicable bound on the k-block constant from supplied inputs."""
    if k < 1:
        raise _CliError("k must be at least 1")
    G = _parse_group_arg(group_text)
    known = KnownValues()
    if inputs_path is not None:
        raw = _load_json_file(inputs_path)
        if "D" in raw:
            known.D = int(raw["D"])
        for key, val in raw.get("s_le", {}).items():
            known.s_le[int(key)] = INFINITE if val == "inf" else int(val)
    started = time.time()
    try:
        reports = collect_bounds(G, k, known)
    except (BoundError, ValueError) as exc:
        raise _CliError(str(exc))
    elapsed = int((time.time() - started) * 1000) if timing else None
    if fmt == "json":
        payload = {
            "group": format_group(G),
            "k": k,
            "bounds": [rep.to_json() for rep in reports],
        }
        if elapsed is not None:
            payload["elapsed_ms"] = elapsed
        _emit_json(payload)
    else:
        for rep in reports:
            click.echo("%-5s %-18s %s" % (rep.direction, rep.rule_id,
                                          serialize_value(rep.value)))
        if elapsed is not None:
            click.echo("elapsed_ms: %d" % elapsed)
    return EXIT_OK


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
    try:
        witness = elb_witness(G, s, t, k)
    except (BoundError, SequenceError, ValueError) as exc:
        raise _CliError(str(exc))
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
    if fmt == "json":
        _emit_json(payload)
    else:
        click.echo("witness: %s" % format_sequence(witness))
        click.echo("length: %d" % witness.length)
        click.echo("lower_bound: %d" % payload["lower_bound"])
        if do_verify:
            click.echo("verified: %s" % ("yes" if payload["verified"] else "no"))
    if do_verify and not payload["verified"]:
        return EXIT_USAGE
    return EXIT_OK


@construct_group.command("paige")
@click.option("--rank", type=int, required=True)
@click.option("--verify", "do_verify", is_flag=True,
              help="Check bijectivity and that doubling g + image(g) is onto.")
@_FMT
def construct_paige(rank: int, do_verify: bool, fmt: str) -> int:
    """Self-map of a rank-r elementary 2-group with surjective doubling."""
    try:
        table = paige_bijection(rank)
    except BoundError as exc:
        raise _CliError(str(exc))
    pairs = [[list(g), list(img)] for g, img in sorted(table.items())]
    payload = {"rank": rank, "pairs": pairs}
    if do_verify:
        images = {tuple(img) for _, img in pairs}
        doubled = {tuple(a ^ b for a, b in zip(g, img)) for g, img in pairs}
        payload["verified"] = len(images) == len(pairs) and len(doubled) == len(pairs)
    if fmt == "json":
        _emit_json(payload)
    else:
        for g, img in pairs:
            click.echo("%s -> %s" % ("".join(map(str, g)), "".join(map(str, img))))
        if do_verify:
            click.echo("verified: %s" % ("yes" if payload["verified"] else "no"))
    if do_verify and not payload["verified"]:
        return EXIT_USAGE
    return EXIT_OK


@construct_group.command("maxfull")
@click.option("--rank", type=int, required=True)
@click.option("--verify", "do_verify", is_flag=True,
              help="Check the blocks partition the full squarefree sequence.")
@_FMT
def construct_maxfull(rank: int, do_verify: bool, fmt: str) -> int:
    """Split the full squarefree sequence into the most zero-sum blocks."""
    try:
        fact = maxfull_factorization(rank)
    except BoundError as exc:
        raise _CliError(str(exc))
    payload = {"rank": rank, "blocks": fact.length, "atoms": fact.to_json()}
    if do_verify:
        # atom minimality is enforced on construction; re-check the product
        product = fact.product()
        full = (1 << rank) - 1
        ok = product.length == full and product.is_squarefree()
        ok = ok and not product.contains_zero()
        ok = ok and fact.length == full // 3
        payload["verified"] = ok
    if fmt == "json":
        _emit_json(payload)
    else:
        click.echo("blocks: %d" % fact.length)
        for atom, mult in fact.atoms:
            text = format_sequence(atom)
            click.echo(text if mult == 1 else "%s  x%d" % (text, mult))
        if do_verify:
            click.echo("verified: %s" % ("yes" if payload["verified"] else "no"))
    if do_verify and not payload["verified"]:
        return EXIT_USAGE
    return EXIT_OK


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
             timing: bool) -> int:
    """Block constants for k = 1..kmax with growth steps."""
    if kmax < 1:
        raise _CliError("kmax must be at least 1")
    G = _parse_group_arg(group_text)
    exp = G.exponent
    started = time.time()
    rows = []
    prev = None
    for k in range(1, kmax + 1):
        try:
            cert = davenport_k(G, k, budget=budget)
        except (SearchError, BoundError, ValueError) as exc:
            raise _CliError(str(exc))
        lo, hi = cert.lower, cert.upper
        row = {"k": k, "lo": lo, "hi": hi, "certified": verify_certificate(cert).ok}
        if prev is not None:
            row["step_lo"] = lo - prev[1]
            row["step_hi"] = hi - prev[0]
        rows.append(row)
        prev = (lo, hi)
    summary = stabilization(G, kmax, budget=budget)
    elapsed = int((time.time() - started) * 1000) if timing else None

    if fmt == "json":
        payload = {
            "group": format_group(G),
            "exponent": exp,
            "rows": rows,
            "stabilization": {
                "d0": summary.d0,
                "k_onset": summary.k_onset,
                "certified": summary.certified,
                "method": summary.method,
            },
        }
        if elapsed is not None:
            payload["elapsed_ms"] = elapsed
        _emit_json(payload)
    elif fmt == "csv":
        click.echo("k,dk,dk_minus_kexp,step,certified")
        for row in rows:
            value = _span(row["lo"], row["hi"])
            shifted = _span(row["lo"] - row["k"] * exp, row["hi"] - row["k"] * exp)
            step = ""
            if "step_lo" in row:
                step = _span(row["step_lo"], row["step_hi"])
            click.echo("%d,%s,%s,%s,%s"
                       % (row["k"], value, shifted, step,
                          "true" if row["certified"] else "false"))
    else:
        click.echo("group: %s  exponent: %d" % (format_group(G), exp))
        for row in rows:
            step = ""
            if "step_lo" in row:
                step = "  step %s" % _span(row["step_lo"], row["step_hi"])
            click.echo("k=%d: %s%s%s"
                       % (row["k"], _span(row["lo"], row["hi"]), step,
                          "" if row["certified"] else "  [unverified]"))
        click.echo("stabilization: offset %s from k=%s, certified %s"
                   % (summary.d0, summary.k_onset,
                      "yes" if summary.certified else "no"))
        if elapsed is not None:
            click.echo("elapsed_ms: %d" % elapsed)
    if any(row["lo"] != row["hi"] for row in rows):
        return EXIT_BRACKET
    return EXIT_OK


@cli.command("verify")
@click.option("--cert", "cert_path", required=True,
              help="Certificate JSON file to re-check.")
@_BUDGET
@_FMT
def verify_cmd(cert_path: str, budget: Optional[int], fmt: str) -> int:
    """Re-verify a stored certificate from its serialized form alone."""
    raw = _load_json_file(cert_path)
    try:
        cert = Certificate.from_json(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise _CliError("malformed certificate: %s" % exc)
    result = verify_certificate(cert, budget=budget)
    if fmt == "json":
        _emit_json({"ok": result.ok, "problems": list(result.problems)})
    else:
        click.echo("ok" if result.ok else "FAILED")
        for item in result.problems:
            click.echo("problem: %s" % item)
    return EXIT_OK if result.ok else EXIT_USAGE


def main(argv=None) -> None:
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except click.Abort:
        sys.exit(EXIT_USAGE)
    sys.exit(rv if isinstance(rv, int) else EXIT_OK)


if __name__ == "__main__":
    main()
