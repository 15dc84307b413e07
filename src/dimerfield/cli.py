"""Command-line front end: run experiments, emit CSV/JSON tables.

One argparse parser reads every option.  Each option is declared once in
``_OPTIONS`` and each command accepts only the options its runner reads,
so a flag the command would ignore is a usage error.  ``--config FILE``
holds ``key=value`` lines keyed by option name (``alpha``, ``n_grid``,
``h_ab_grid``, ...); they are appended to the command line as
``--flag=value`` and parsed by the same subparser, so the file overrides
flags and a key the command does not read is rejected too.  JSON output
embeds the parsed options for provenance.  CSV output carries a header row
naming each column with its unit; all floats print at 17 significant digits
so values round-trip exactly.  Exit codes: 0 success, 2 usage or validation
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import critical as crit
from . import gaussian as gauss
from . import model
from . import variational as vari
from .params import ModelParams, ReducedParams

_UNITS = {
    "n": "sites",
    "n1": "sites",
    "n2": "sites",
    "log_z": "nats",
    "lhs": "nats",
    "rhs": "nats",
    "pressure_density": "nats/site",
    "p": "nats/site",
    "psi": "nats/site",
    "psi1": "nats/site",
    "abs_error": "nats/site",
    "envelope": "nats/site",
    "delta": "nats",
    "alpha": "fraction",
    "alpha_c": "fraction",
    "d_a": "dimers/site",
    "d_b": "dimers/site",
    "d_ab": "dimers/site",
    "mean_d_a": "dimers/site",
    "mean_d_b": "dimers/site",
    "mean_d_ab": "dimers/site",
    "d": "dimers/site",
    "d_star": "dimers/site",
    "d_c": "dimers/site",
    "deviation": "dimers/site",
    "d_mix": "fraction",
    "d_mix_c": "fraction",
    "h_ab": "field",
    "h_c": "field",
    "h_coex": "field",
    "j_abab": "coupling",
    "j_c": "coupling",
    "offset": "coupling",
    "classes_visited": "classes",
    "classes_total": "classes",
    "log_tail_bound": "nats",
    "check": "label",
    "stability": "label",
    "holds": "bool",
    "fp_residual": "dimers/site",
    "res_f1": "coupling",
    "res_f0": "field",
    "res_d_c": "dimers/site",
    "res_j_c": "coupling",
    "res_h_c": "field",
}


def _parse_grid(spec: str) -> list:
    """Parse '1,2,3', 'lo:hi:n' (linear) or 'lo:hi:ng' (geometric)."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"range spec must be lo:hi:n, got {spec!r}")
        lo, hi = float(parts[0]), float(parts[1])
        count_s = parts[2]
        geometric = count_s.endswith("g")
        count = int(count_s[:-1] if geometric else count_s)
        if count < 1:
            raise argparse.ArgumentTypeError(f"range spec needs at least one point: {spec!r}")
        vals = np.geomspace(lo, hi, count) if geometric else np.linspace(lo, hi, count)
    else:
        vals = np.array([float(tok) for tok in spec.split(",") if tok.strip()])
    if vals.size == 0 or not np.all(np.isfinite(vals)):
        raise argparse.ArgumentTypeError(f"grid spec {spec!r} produced no finite values")
    return [float(v) for v in vals]


def _parse_int_grid(spec: str) -> list:
    vals = _parse_grid(spec)
    ints = [int(round(v)) for v in vals]
    if any(abs(i - v) > 1e-9 for i, v in zip(ints, vals)):
        raise argparse.ArgumentTypeError(f"grid spec {spec!r} must contain integers")
    return ints


def _parse_vec3(spec: str) -> list:
    vals = [float(tok) for tok in spec.split(",")]
    if len(vals) != 3:
        raise argparse.ArgumentTypeError(f"expected 3 comma-separated values, got {spec!r}")
    return vals


def _parse_mat3(spec: str) -> list:
    vals = [float(tok) for tok in spec.split(",")]
    if len(vals) != 9:
        raise argparse.ArgumentTypeError(f"expected 9 comma-separated values (row-major): {spec!r}")
    return [vals[0:3], vals[3:6], vals[6:9]]


#: Every option, declared once: dest -> (flag, add_argument keywords).
#: A config-file key is a dest and stands for the flag.  String
#: defaults go through the converter on every parse, so no run shares a list.
_OPTIONS = {
    "alpha": ("--alpha", dict(type=float, default=0.5, help="population-A fraction")),
    "h": ("--h", dict(type=_parse_vec3, default="0,0,0", help="h_A,h_B,h_AB")),
    "j": ("--j", dict(type=_parse_mat3, default="0,0,0,0,0,0,0,0,0", help="J row by row")),
    "n_grid": ("--n", dict(type=_parse_int_grid, help="system sizes N")),
    "seed": ("--seed", dict(type=int, default=0, help="seed of the superadditivity draws")),
    "trials": ("--trials", dict(type=int, default=10, help="superadditivity triples")),
    "h_ab_grid": ("--h-ab-grid", dict(type=_parse_grid, help="mixed fields to scan")),
    "j_abab_grid": ("--j-abab-grid", dict(type=_parse_grid, help="mixed couplings to scan")),
    "offsets": ("--offsets", dict(type=_parse_grid, help="coupling offsets above J_c")),
    "jprime": ("--jprime", dict(type=float, required=True, help="J_ABAB / (alpha (1 - alpha))")),
    "alphas": ("--alphas", dict(type=_parse_grid, help="population fractions to scan")),
    "output": ("--output", dict(help="output path (default stdout)")),
    "format": ("--format", dict(choices=("csv", "json"), default="json")),
}
_ALPHA_REQUIRED = {"alpha": {"required": True}}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimerfield",
        description="Two-population mean-field monomer-dimer model toolkit.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, dests, overrides) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for dest in (*dests, "output", "format"):
            flag, kwargs = _OPTIONS[dest]
            p.add_argument(flag, dest=dest, **{**kwargs, **overrides.get(dest, {})})
        p.add_argument("--config", help="key=value file overriding flags")
    return parser


def _config_tokens(argv: list) -> list:
    """The ``--config`` file named in argv, as ``--flag=value`` tokens."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not eq or key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: expected option_name=value, got {raw!r}")
            tokens.append(f"{_OPTIONS[key][0]}={value.strip()}")
    return tokens


def _model_params(cfg) -> ModelParams:
    """``gauss`` has no coupling options: its identities hold at J = 0."""
    return ModelParams(cfg.alpha, cfg.h, getattr(cfg, "j", None))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _run_exact(cfg):
    params = _model_params(cfg)
    rows = []
    for n in cfg.n_grid:
        log_z, s_a, s_b, s_ab, mix = model._ensemble_sums(n, params, mix=True)[:5]
        rows.append(
            {
                "n": n,
                "log_z": float(log_z),
                "pressure_density": float(log_z) / n,
                "mean_d_a": float(s_a) / n,
                "mean_d_b": float(s_b) / n,
                "mean_d_ab": float(s_ab) / n,
                "d_mix": float(mix),
            }
        )
    return rows, {}


def _run_pressure(cfg):
    params = _model_params(cfg)
    maximizers = vari.maximize_psi(params)
    p = max(v for _, v in maximizers)
    rows = []
    for idx, (point, value) in enumerate(maximizers):
        residual = vari.fixed_point_residual(params, point)
        try:
            grad_norm = float(np.linalg.norm(vari.grad_psi(point, params)))
        except ValueError:
            grad_norm = float("nan")
        rows.append(
            {
                "index": idx,
                "d_a": point.d_a,
                "d_b": point.d_b,
                "d_ab": point.d_ab,
                "psi": value,
                "grad_norm": grad_norm,
                "fp_residual": residual,
                "p": p,
            }
        )
    return rows, {"p": p, "n_maximizers": len(maximizers)}


def _run_critical(cfg):
    alpha = cfg.alpha
    cp = crit.critical_point(alpha)
    r2, r1, r0 = crit.critical_residuals(cp)
    rows = [
        {
            "alpha": alpha,
            "d_c": cp.d_c,
            "h_c": cp.h_c,
            "j_c": cp.j_c,
            "res_f2": r2,
            "res_f1": r1,
            "res_f0": r0,
            "res_d_c": cp.d_c - alpha / 2.0,
            "res_j_c": cp.j_c - 4.0 / alpha,
            "res_h_c": cp.h_c - crit.H_C_LIMIT,
        }
    ]
    summary = {"d_c": cp.d_c, "h_c": cp.h_c, "j_c": cp.j_c}
    return rows, summary


def _run_branches(cfg):
    alpha = cfg.alpha
    cp = crit.critical_point(alpha)
    h_grid = cfg.h_ab_grid or [cp.h_c + dh for dh in np.linspace(-0.5, 0.5, 5)]
    j_grid = cfg.j_abab_grid or [cp.j_c * s for s in (0.5, 1.0, 1.5, 2.0)]
    rows = []
    for j in j_grid:
        for h in h_grid:
            for branch in crit.solve_branches(ReducedParams(alpha, h, j)):
                rows.append(
                    {
                        "alpha": alpha,
                        "h_ab": float(h),
                        "j_abab": float(j),
                        "d": branch.d,
                        "psi1": branch.psi1_value,
                        "stability": branch.stability,
                    }
                )
    return rows, {"d_c": cp.d_c, "h_c": cp.h_c, "j_c": cp.j_c}


def _run_exponent(cfg):
    alpha = cfg.alpha
    cp = crit.critical_point(alpha)
    offsets = cfg.offsets or list(np.geomspace(1e-4 * cp.j_c, 1e-2 * cp.j_c, 13))
    scan = crit.exponent_scan(alpha, offsets)
    rows = []
    for delta, dev in zip(scan.offsets, scan.deviations):
        rows.append(
            {
                "offset": float(delta),
                "j_abab": scan.critical.j_c + float(delta),
                "h_ab": scan.critical.h_c - scan.critical.d_c * float(delta),
                "d_star": scan.critical.d_c + float(dev),
                "deviation": float(dev),
                "exponent": scan.exponent,
                "prefactor": scan.prefactor,
            }
        )
    summary = {
        "exponent": scan.exponent,
        "prefactor": scan.prefactor,
        "d_c": scan.critical.d_c,
        "h_c": scan.critical.h_c,
        "j_c": scan.critical.j_c,
    }
    return rows, summary


def _run_scaled(cfg):
    sc = crit.scaled_coupling_critical(cfg.jprime)
    alphas = cfg.alphas or list(sc.alpha_c * (1.0 + np.geomspace(0.02, 0.2, 9)))
    scan = crit.d_mix_scan(cfg.jprime, alphas)
    rows = []
    for a, h, d, mix in zip(scan.alphas, scan.h_values, scan.d_values, scan.d_mix):
        rows.append(
            {
                "alpha": float(a),
                "j_abab": float(a * (1.0 - a) * cfg.jprime),
                "h_coex": float(h),
                "d_star": float(d),
                "d_mix": float(mix),
                "alpha_c": sc.alpha_c,
                "d_mix_c": sc.d_mix_c,
                "exponent": scan.exponent,
            }
        )
    summary = {
        "jprime": cfg.jprime,
        "alpha_c": sc.alpha_c,
        "h_c": sc.h_c,
        "d_c": sc.d_c,
        "d_mix_c": sc.d_mix_c,
        "exponent": scan.exponent,
    }
    return rows, summary


def _run_gauss(cfg):
    if cfg.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {cfg.trials}")
    params = _model_params(cfg)
    gauss.weight_matrix(params.h)
    columns = ("check", "n1", "n2", "lhs", "rhs", "delta", "holds")
    rows = []
    for n in cfg.n_grid:
        exact = model.log_partition_exact(n, params)
        quad = gauss.z_via_gaussian(n, params.alpha, params.h)
        star = gauss.z_star(n, params.alpha, params.h)
        delta = abs(exact - quad.log_value)
        rows.append(("wick", n, 0, exact, quad.log_value, delta, delta <= 1e-6 * max(1.0, abs(exact))))
        ratio = float(np.exp(quad.log_value - star.log_value))
        rows.append(("ratio", n, 0, quad.log_value, star.log_value, ratio, True))
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.trials):
        n1 = int(rng.integers(1, 41))
        n2 = int(rng.integers(1, 41))
        res = gauss.superadditivity_check(n1, n2, params.alpha, params.h)
        rows.append(("superadd", res.n1, res.n2, res.lhs, res.rhs, res.slack, res.holds))
    return [dict(zip(columns, row)) for row in rows], {}


def _run_convergence(cfg):
    params = _model_params(cfg)
    p = vari.pressure(params)
    ns = sorted(cfg.n_grid)
    sums = [model._ensemble_sums(n, params) for n in ns]
    densities = [float(out[0]) / n for n, out in zip(ns, sums)]
    errors = np.abs(np.array(densities) - p)
    x = np.array([np.log(n) / n for n in ns])
    c_fit = float((errors @ x) / (x @ x))
    rows = [
        {
            "n": n,
            "pressure_density": dens,
            "p": p,
            "abs_error": float(err),
            "envelope": c_fit * np.log(n) / n,
            "classes_visited": out[5],
            "classes_total": model.admissible_count(model.split_sizes(n, params.alpha)),
            "log_tail_bound": out[6],
        }
        for n, dens, err, out in zip(ns, densities, errors, sums)
    ]
    return rows, {"p": p, "c_fit": c_fit}


_MODEL = ("alpha", "h", "j")

#: name -> (runner, help, the options the runner reads, per-command keywords).
#: Every command also takes --output, --format and --config.
_COMMANDS = {
    "exact": (_run_exact, "finite-N enumeration over an N grid",
              (*_MODEL, "n_grid"), {"n_grid": {"default": "4,8,16"}}),
    "pressure": (_run_pressure, "variational pressure and maximizers", _MODEL, {}),
    "critical": (_run_critical, "critical point of the reduced model",
                 ("alpha",), _ALPHA_REQUIRED),
    "branches": (_run_branches, "phase-diagram scan of the reduced model",
                 ("alpha", "h_ab_grid", "j_abab_grid"), _ALPHA_REQUIRED),
    "exponent": (_run_exponent, "branch-deviation exponent scan",
                 ("alpha", "offsets"), _ALPHA_REQUIRED),
    "scaled": (_run_scaled, "scaled-coupling critical point and d_mix scan",
               ("jprime", "alphas"), {}),
    "gauss": (_run_gauss, "Gaussian-moment cross checks at J=0",
              ("alpha", "h", "n_grid", "seed", "trials"),
              {"n_grid": {"default": "2,4,8,16,32"}, "h": {"default": "0,0,-1"}}),
    "convergence": (_run_convergence, "finite-N pressure against the limit",
                    (*_MODEL, "n_grid"), {"n_grid": {"default": "50,100,200,400"}}),
}


def _write_csv(rows, fh) -> None:
    if not rows:
        return
    columns = list(rows[0].keys())
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([f"{c} [{_UNITS.get(c, 'pure')}]" for c in columns])
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])


def _finite(value):
    """JSON has no NaN or infinity: a non-finite float is written as null."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(cfg, rows, summary, fh) -> None:
    payload = {"config": vars(cfg), "summary": summary, "rows": rows}
    json.dump(_finite(payload), fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


def _emit_error(category: str, exc: Exception) -> None:
    record = {"error": {"category": category, "message": str(exc)}}
    print(json.dumps(record), file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = _build_parser().parse_args(argv + _config_tokens(argv))
        del cfg.config
        if cfg.output and not os.path.isdir(os.path.dirname(os.path.abspath(cfg.output))):
            raise ValueError(f"--output {cfg.output!r}: no such directory")
        rows, summary = _COMMANDS[cfg.command][0](cfg)
        buffer = io.StringIO()
        if cfg.format == "csv":
            _write_csv(rows, buffer)
        else:
            _write_json(cfg, rows, summary, buffer)
        if cfg.output:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(buffer.getvalue())
        else:
            sys.stdout.write(buffer.getvalue())
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        _emit_error("numerical", exc)
        return 3
    except (ValueError, OSError) as exc:
        _emit_error("validation", exc)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
