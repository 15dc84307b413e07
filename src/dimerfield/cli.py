"""Command-line front end: run experiments, emit CSV/JSON tables.

Every command resolves its full configuration first (flags, then optional
key=value config file overriding them) and embeds it in JSON output for
provenance.  CSV output carries a header row naming each column with its
unit; all floats print at 17 significant digits so values round-trip
exactly.  Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, field

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
    "log_z_exact": "nats",
    "log_z_gauss": "nats",
    "log_z_star": "nats",
    "lhs": "nats",
    "rhs": "nats",
    "pressure_density": "nats/site",
    "p": "nats/site",
    "psi": "nats/site",
    "psi1": "nats/site",
    "abs_error": "nats/site",
    "envelope": "nats/site",
    "delta": "nats",
    "slack": "nats",
    "ratio": "pure",
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
    "jprime": "coupling",
    "offset": "coupling",
    "exponent": "pure",
    "prefactor": "pure",
    "c_fit": "pure",
    "classes_visited": "classes",
    "classes_total": "classes",
    "log_tail_bound": "nats",
    "grad_norm": "pure",
    "fp_residual": "pure",
    "index": "pure",
    "check": "label",
    "stability": "label",
    "holds": "bool",
    "res_f2": "pure",
    "res_f1": "pure",
    "res_f0": "pure",
    "res_d_c": "dimers/site",
    "res_j_c": "coupling",
    "res_h_c": "field",
}


@dataclass
class RunConfig:
    """Fully resolved run description (embedded in JSON output)."""

    command: str
    alpha: float = 0.5
    h: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    j: list = field(default_factory=lambda: [[0.0] * 3 for _ in range(3)])
    n_grid: list | None = None
    offsets: list | None = None
    jprime: float | None = None
    alphas: list | None = None
    h_ab_grid: list | None = None
    j_abab_grid: list | None = None
    trials: int = 10
    quad_nodes: int = 200
    cap: int = model.DEFAULT_ENUMERATION_CAP
    grid_resolution: int = 64
    seed: int = 0
    output: str | None = None
    format: str = "json"

    def model_params(self) -> ModelParams:
        return ModelParams(alpha=self.alpha, h=np.array(self.h), J=np.array(self.j))


def _parse_grid(spec: str, integer: bool = False) -> list:
    """Parse '1,2,3', 'lo:hi:n' (linear) or 'lo:hi:ng' (geometric)."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"range spec must be lo:hi:n, got {spec!r}")
        lo, hi = float(parts[0]), float(parts[1])
        count_s = parts[2]
        geometric = count_s.endswith("g")
        count = int(count_s[:-1] if geometric else count_s)
        if count < 1:
            raise ValueError(f"range spec needs at least one point: {spec!r}")
        vals = np.geomspace(lo, hi, count) if geometric else np.linspace(lo, hi, count)
    else:
        vals = np.array([float(tok) for tok in spec.split(",") if tok.strip()])
    if vals.size == 0 or not np.all(np.isfinite(vals)):
        raise ValueError(f"grid spec {spec!r} produced no finite values")
    if integer:
        ints = [int(round(v)) for v in vals]
        if any(abs(i - v) > 1e-9 for i, v in zip(ints, vals)):
            raise ValueError(f"grid spec {spec!r} must contain integers")
        return ints
    return [float(v) for v in vals]


def _parse_vec3(spec: str) -> list:
    vals = [float(tok) for tok in spec.split(",")]
    if len(vals) != 3:
        raise ValueError(f"expected 3 comma-separated values, got {spec!r}")
    return vals


def _parse_mat3(spec: str) -> list:
    vals = [float(tok) for tok in spec.split(",")]
    if len(vals) != 9:
        raise ValueError(f"expected 9 comma-separated values (row-major), got {spec!r}")
    return [vals[0:3], vals[3:6], vals[6:9]]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimerfield",
        description="Two-population mean-field monomer-dimer model toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, reduced: bool = False):
        p.add_argument("--alpha", type=float, default=None, help="population-A fraction")
        if not reduced:
            p.add_argument("--h", type=str, default=None, help="h_A,h_B,h_AB")
            p.add_argument("--j", "--J", dest="j", type=str, default=None,
                           help="9 row-major coupling entries")
        p.add_argument("--h-ab", dest="h_ab", type=float, default=None,
                       help="mixed-dimer field (overrides the h vector entry)")
        p.add_argument("--j-abab", dest="j_abab", type=float, default=None,
                       help="mixed-dimer coupling (overrides the J matrix entry)")
        p.add_argument("--config", type=str, default=None,
                       help="key=value file overriding flags")
        p.add_argument("--output", type=str, default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--cap", type=int, default=None, help="enumeration size cap")
        p.add_argument("--grid-res", dest="grid_resolution", type=int, default=None)
        p.add_argument("--quad-nodes", dest="quad_nodes", type=int, default=None)

    p = sub.add_parser("exact", help="finite-N enumeration over an N grid")
    common(p)
    p.add_argument("--n", "--N", "--n-grid", dest="n_grid", type=str, default="4,8,16")

    p = sub.add_parser("pressure", help="variational pressure and maximizers")
    common(p)

    p = sub.add_parser("critical", help="critical point of the reduced model")
    common(p, reduced=True)

    p = sub.add_parser("branches", help="phase-diagram scan of the reduced model")
    common(p, reduced=True)
    p.add_argument("--h-ab-grid", dest="h_ab_grid", type=str, default=None)
    p.add_argument("--j-abab-grid", dest="j_abab_grid", type=str, default=None)

    p = sub.add_parser("exponent", help="branch-deviation exponent scan")
    common(p, reduced=True)
    p.add_argument("--offsets", type=str, default=None, help="coupling offsets above J_c")

    p = sub.add_parser("scaled", help="scaled-coupling critical point and d_mix scan")
    common(p, reduced=True)
    p.add_argument("--jprime", type=float, default=None, required=False)
    p.add_argument("--alphas", type=str, default=None)

    p = sub.add_parser("gauss", help="Gaussian-moment cross checks at J=0")
    common(p)
    p.add_argument("--n", "--n-grid", dest="n_grid", type=str, default="2,4,8,16,32")
    p.add_argument("--trials", type=int, default=None, help="superadditivity triples")

    p = sub.add_parser("convergence", help="finite-N pressure against the limit")
    common(p)
    p.add_argument("--n", "--n-grid", dest="n_grid", type=str, default="50,100,200,400")
    return parser


_CONVERTERS = {
    "alpha": float,
    "h": _parse_vec3,
    "j": _parse_mat3,
    "h_ab": float,
    "j_abab": float,
    "n_grid": lambda s: _parse_grid(s, integer=True),
    "offsets": _parse_grid,
    "jprime": float,
    "alphas": _parse_grid,
    "h_ab_grid": _parse_grid,
    "j_abab_grid": _parse_grid,
    "trials": int,
    "quad_nodes": int,
    "cap": int,
    "grid_resolution": int,
    "seed": int,
    "output": str,
    "format": str,
}


def _apply_config_file(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{args.config}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONVERTERS:
                raise ValueError(f"{args.config}:{lineno}: unknown key {key!r}")
            setattr(args, key, _CONVERTERS[key](value))


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    _apply_config_file(args)
    cfg = RunConfig(command=args.command)
    for key in vars(cfg):
        if key == "command":
            continue
        value = getattr(args, key, None)
        if value is None:
            continue
        if isinstance(value, str) and key in _CONVERTERS and key not in ("output", "format"):
            value = _CONVERTERS[key](value)
        setattr(cfg, key, value)
    if getattr(args, "format", None):
        cfg.format = args.format
    h_ab = getattr(args, "h_ab", None)
    if h_ab is not None:
        cfg.h[2] = float(h_ab)
    j_abab = getattr(args, "j_abab", None)
    if j_abab is not None:
        cfg.j[2][2] = float(j_abab)
    if cfg.format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {cfg.format!r}")
    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _run_exact(cfg: RunConfig):
    params = cfg.model_params()
    rows = []
    for n in cfg.n_grid:
        log_z, s_a, s_b, s_ab, mix = model._ensemble_sums(n, params, cfg.cap)[:5]
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


def _run_pressure(cfg: RunConfig):
    params = cfg.model_params()
    maximizers = vari.maximize_psi(params, grid_resolution=cfg.grid_resolution)
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


def _require_alpha(cfg: RunConfig) -> float:
    if cfg.alpha is None:
        raise ValueError("--alpha is required for this command")
    return cfg.alpha


def _run_critical(cfg: RunConfig):
    alpha = _require_alpha(cfg)
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


def _run_branches(cfg: RunConfig):
    alpha = _require_alpha(cfg)
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


def _run_exponent(cfg: RunConfig):
    alpha = _require_alpha(cfg)
    cp = crit.critical_point(alpha)
    offsets = cfg.offsets or list(np.geomspace(0.005 * cp.j_c, 0.05 * cp.j_c, 13))
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


def _run_scaled(cfg: RunConfig):
    if cfg.jprime is None:
        raise ValueError("--jprime is required for the scaled command")
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


def _run_gauss(cfg: RunConfig):
    params = cfg.model_params()
    gauss.weight_matrix(params.h)
    rows = []
    for n in cfg.n_grid:
        exact = model.log_partition_exact(n, params, cfg.cap)
        quad = gauss.z_via_gaussian(n, params.alpha, params.h, nodes=cfg.quad_nodes)
        star = gauss.z_star(n, params.alpha, params.h, nodes=cfg.quad_nodes)
        delta = abs(exact - quad.log_value)
        rows.append(
            {
                "check": "wick",
                "n1": n,
                "n2": 0,
                "lhs": exact,
                "rhs": quad.log_value,
                "delta": delta,
                "holds": bool(delta <= 1e-6 * max(1.0, abs(exact))),
            }
        )
        rows.append(
            {
                "check": "ratio",
                "n1": n,
                "n2": 0,
                "lhs": quad.log_value,
                "rhs": star.log_value,
                "delta": float(np.exp(quad.log_value - star.log_value)),
                "holds": True,
            }
        )
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.trials):
        n1 = int(rng.integers(1, 41))
        n2 = int(rng.integers(1, 41))
        res = gauss.superadditivity_check(
            n1, n2, params.alpha, params.h, nodes=cfg.quad_nodes
        )
        rows.append(
            {
                "check": "superadd",
                "n1": res.n1,
                "n2": res.n2,
                "lhs": res.lhs,
                "rhs": res.rhs,
                "delta": res.slack,
                "holds": res.holds,
            }
        )
    return rows, {}


def _run_convergence(cfg: RunConfig):
    params = cfg.model_params()
    p = vari.pressure(params, grid_resolution=cfg.grid_resolution)
    ns = sorted(cfg.n_grid)
    sums = [model._ensemble_sums(n, params, cfg.cap) for n in ns]
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


_COMMANDS = {
    "exact": _run_exact,
    "pressure": _run_pressure,
    "critical": _run_critical,
    "branches": _run_branches,
    "exponent": _run_exponent,
    "scaled": _run_scaled,
    "gauss": _run_gauss,
    "convergence": _run_convergence,
}


def _write_csv(rows, fh) -> None:
    if not rows:
        return
    columns = list(rows[0].keys())
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([f"{c} [{_UNITS.get(c, 'pure')}]" for c in columns])
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])


def _write_json(cfg: RunConfig, rows, summary, fh) -> None:
    payload = {"config": asdict(cfg), "summary": summary, "rows": rows}
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _emit_error(category: str, exc: Exception) -> None:
    record = {"error": {"category": category, "message": str(exc)}}
    print(json.dumps(record), file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _resolve_config(args)
    except (ValueError, OSError) as exc:
        _emit_error("validation", exc)
        return 2
    try:
        rows, summary = _COMMANDS[cfg.command](cfg)
    except ValueError as exc:
        _emit_error("validation", exc)
        return 2
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        _emit_error("numerical", exc)
        return 3

    buffer = io.StringIO()
    if cfg.format == "csv":
        _write_csv(rows, buffer)
    else:
        _write_json(cfg, rows, summary, buffer)
    text = buffer.getvalue()
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
