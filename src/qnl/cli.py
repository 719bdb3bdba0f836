"""Command-line front end: JSON/CSV emission for all analyses.

Commands: measures, scan, thresholds, sample-mems, werner-map. States are
given as text specs: ``bell:singlet``, ``werner:p=0.8``,
``mems:p1=0.6,p2=0.2,p3=0.15,p4=0.05`` or ``file:path/to/state.json``.
Exit codes: 0 success, 2 usage or validation error (non-finite numbers
included) or a stdout or ``--out`` file that cannot be written (``_write_out``
leaves no truncated CSV), 3 when the computation itself fails (``_Group``).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import sys

import click
import numpy as np

from . import sampling, states, thresholds
from .errors import BadGrid, InvalidTolerance, QnlError
from .measures import classify
from .channels import FAMILIES

EXIT_NUMERICAL = 3
# Most rows of a scan, a werner-map (grid^2) or a sample-mems run, checked before allocating.
MAX_GRID = 10**6
MAX_MAP_AXIS = math.isqrt(MAX_GRID)

_CHANNEL_CHOICE = click.Choice(sorted(FAMILIES))


def parse_state_spec(text: str) -> states.DensityMatrix:
    """Parse a state spec string into a validated DensityMatrix."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise click.UsageError(f"malformed state spec {text!r}; expected '<kind>:<args>'")
    try:
        if kind == "bell":
            if rest != "singlet":
                raise click.UsageError(f"unknown bell state {rest!r}; only 'singlet' exists")
            return states.bell_singlet()
        if kind == "werner":
            key, _, value = rest.partition("=")
            if key != "p" or not value:
                raise click.UsageError("werner spec must look like 'werner:p=0.8'")
            return states.werner(float(value))
        if kind == "mems":
            parts = {}
            for key, sep, value in (item.partition("=") for item in rest.split(",")):
                if not sep:
                    raise click.UsageError(f"mems spec item {key!r} is not 'key=value'")
                if key in parts:
                    raise click.UsageError(f"mems spec names {key!r} twice")
                parts[key] = value
            if sorted(parts) != ["p1", "p2", "p3", "p4"]:
                raise click.UsageError("mems spec must name p1..p4, e.g. 'mems:p1=0.6,p2=0.2,p3=0.15,p4=0.05'")
            w = states.MemsWeights(*(float(parts[k]) for k in ("p1", "p2", "p3", "p4")))
            return states.mems(w)
        if kind == "file":
            return states.load_state(rest)
        raise click.UsageError(f"unknown state kind {kind!r}; use bell, werner, mems or file")
    except (QnlError, ValueError, OSError) as exc:
        raise click.UsageError(f"invalid state spec {text!r}: {exc}")


def _echo(message: str, nl: bool = True) -> None:
    """``click.echo`` to the text stream click picks for stdout, looked up on each call.

    click.echo's own lookup caches that stream, which keeps every redirected stdout alive.
    A failed write (a full disk, a closed pipe) exits 2 with one line on stderr.
    """
    try:
        click.echo(message, click.get_text_stream("stdout", errors=None), nl)
    except OSError as exc:
        if sys.stdout is sys.__stdout__:  # Python's last flush of stdout then writes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        click.echo(f"cannot write to stdout: {exc}", click.get_text_stream("stderr", errors=None))
        sys.exit(2)


def _write_out(out: str, write) -> None:
    """Write the file ``out`` through ``write(fh)``; exit 2 with "cannot write" if that fails.

    A failed write leaves no truncated CSV: ``out`` is resolved once, symbolic
    links followed (``os.path.realpath``), and the regular file this run opened
    is removed if it is still the file at that path. Nothing else is: a link
    stays (dangling), and a device such as /dev/full stays.
    """
    opened = None
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            opened = os.fstat(fh.fileno())
            write(fh)
    except OSError as exc:
        if opened is not None and stat.S_ISREG(opened.st_mode):
            target = os.path.realpath(out)
            with contextlib.suppress(OSError):
                if os.path.samestat(opened, os.lstat(target)):  # not a file put there since
                    os.remove(target)
        raise click.UsageError(f"cannot write {out!r}: {exc}")


def _sig12(x: float) -> float:
    """Round to 12 significant digits for stable, plot-ready output."""
    return float(format(x, ".12g"))


def _check_tol(ctx: click.Context, param: click.Parameter, tol: float) -> float:
    # The library's check rather than click.FloatRange, which lets nan through.
    try:
        return thresholds._check_tol(tol)
    except InvalidTolerance as exc:
        raise click.BadParameter(str(exc)) from exc


class _Group(click.Group):
    """Command group that turns any QnlError a command lets through into exit 3."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except QnlError as exc:
            click.echo(f"numerical failure: {exc}", click.get_text_stream("stderr", errors=None))
            sys.exit(EXIT_NUMERICAL)


@click.group(cls=_Group)
def main() -> None:
    """Nonlocal-correlation toolbox for two-qubit states in noisy channels."""


@main.command("measures")
@click.option("--state", "spec", required=True, help="State spec, e.g. bell:singlet.")
def cmd_measures(spec: str) -> None:
    """Print concurrence, fidelity, N and Bell parameter of a state as JSON."""
    report = classify(parse_state_spec(spec))
    _echo(json.dumps(
        {
            "concurrence": _sig12(report.concurrence),
            "fidelity": _sig12(report.fidelity),
            "n_value": _sig12(report.n_value),
            "bell": _sig12(report.bell),
            "class": report.hierarchy_class.value,
        }
    ))


@main.command("scan")
@click.option("--state", "spec", required=True, help="State spec.")
@click.option("--channel", default="amplitude-damping", type=_CHANNEL_CHOICE,
              show_default=True)
@click.option("--qmin", default=0.0, show_default=True)
@click.option("--qmax", default=1.0, show_default=True)
@click.option("--steps", default=101, show_default=True)
def cmd_scan(spec: str, channel: str, qmin: float, qmax: float, steps: int) -> None:
    """Print a q,concurrence,fidelity,bell CSV over an equally spaced grid."""
    rho = parse_state_spec(spec)
    if not 2 <= steps <= MAX_GRID:
        raise click.UsageError(f"steps must lie in [2, {MAX_GRID}], got {steps}")
    if not (0.0 <= qmin < qmax <= 1.0):
        raise click.UsageError(f"need 0 <= qmin < qmax <= 1, got qmin={qmin}, qmax={qmax}")
    try:  # qmin < qmax can still give equal floats, as when qmax is the float after qmin
        table = thresholds.scan(rho, channel, np.linspace(qmin, qmax, steps))
    except BadGrid as exc:
        raise click.UsageError(str(exc))
    _echo("q,concurrence,fidelity,bell")
    for text in sampling.csv_blocks(table):
        _echo(text, nl=False)


@main.command("thresholds")
@click.option("--state", "spec", required=True, help="State spec.")
@click.option("--channel", default="amplitude-damping", type=_CHANNEL_CHOICE,
              show_default=True)
@click.option("--tol", default=1e-9, show_default=True, callback=_check_tol)
def cmd_thresholds(spec: str, channel: str, tol: float) -> None:
    """Print the critical strengths q_G, q_B, q_F, q_C of a state as JSON."""
    ts = thresholds.threshold_set(parse_state_spec(spec), channel, tol)
    payload = {
        key: (None if value is None else _sig12(value))
        for key, value in ts.as_dict().items()
    }
    payload["hierarchy_ok"] = thresholds.hierarchy_check(ts)
    _echo(json.dumps(payload))


@main.command("sample-mems")
@click.option("--n", default=1000, show_default=True, help="Number of accepted states.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--channel", default="amplitude-damping", type=_CHANNEL_CHOICE,
              show_default=True)
@click.option("--tol", default=1e-6, show_default=True, callback=_check_tol)
@click.option("--out", required=True, type=click.Path(dir_okay=False, writable=True))
def cmd_sample_mems(n: int, seed: int, channel: str, tol: float, out: str) -> None:
    """Run the seeded hierarchy experiment and write its CSV."""
    if not 1 <= n <= MAX_GRID:
        raise click.UsageError(f"--n must lie in [1, {MAX_GRID}], got {n}")
    # Checked before the experiment runs; the CSV is created only once it has records.
    directory = os.path.dirname(os.path.abspath(out))
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise click.UsageError(f"cannot write {out!r}: its directory is missing or not writable")
    cfg = sampling.SamplerConfig(n_states=n, seed=seed, channel=channel, tol=tol)
    records = sampling.hierarchy_experiment(cfg)
    _write_out(out, lambda fh: sampling.write_records_csv(records, fh))
    ok = int(records.ordered.sum())
    _echo(f"wrote {len(records)} records to {out}; "
          f"locator self-check: {ok} of {len(records)} ordered q_G <= q_B <= q_F <= q_C")


@main.command("werner-map")
@click.option("--grid", default=101, show_default=True, help="Lattice points per axis.")
@click.option("--out", required=True, type=click.Path(dir_okay=False, writable=True))
def cmd_werner_map(grid: int, out: str) -> None:
    """Write the p,q,region CSV of the Werner amplitude-damping phase map."""
    if not 2 <= grid <= MAX_MAP_AXIS:
        raise click.UsageError(f"--grid must lie in [2, {MAX_MAP_AXIS}] (at most {MAX_GRID} rows), got {grid}")
    axis = np.linspace(0.0, 1.0, grid)

    def write(fh) -> None:
        fh.write("p,q,region\n")
        labels = [f"{v:.12g}" for v in axis]
        for p, p_label in zip(axis, labels):  # a row at a time, never the whole lattice
            regions = thresholds.werner_region(p, axis).tolist()
            fh.write("".join(f"{p_label},{q_label},{region}\n"
                             for q_label, region in zip(labels, regions)))

    _write_out(out, write)
    _echo(f"wrote {grid * grid} rows to {out}")


if __name__ == "__main__":
    main()
