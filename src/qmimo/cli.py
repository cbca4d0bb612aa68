"""Configuration-driven batch front end.

A JSON config file describes one experiment family: ``snr_db``, ``b`` and
any integer or real per-point key given as a list are swept axes, whose
Cartesian product runs in ``_KEYS`` order. Results stream to CSV (one row
per point and scheme, one column per axis, flushed per point) with a JSON
mirror carrying per-channel arrays and the final bit allocations.

Exit codes: 0 success, 1 run error, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from . import channel, evaluation
from .quantizer import distortion_table, lloyd_max_design

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "run_sweep",
    "write_results",
    "main",
]

CSV_COLUMNS = [
    "scheme",
    "mean_se_apx", "stderr_se_apx", "mean_se_sim", "stderr_se_sim",
    "mean_ee", "total_power_w", "mean_iterations", "seed",
]

_REQUIRED_KEYS = {"Nt", "Nr", "Ns", "snr_db", "b"}


class ConfigError(ValueError):
    """Raised for malformed or infeasible experiment configurations."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description: a base point, swept axes and run settings.

    ``base`` holds every per-point parameter (at the first value of each
    swept axis); ``axes`` maps config keys to their swept values, outermost
    first, and ``points()`` varies ``base`` over their product.
    """

    base: evaluation.PointConfig
    axes: dict[str, tuple]
    seed: int = 0
    schemes: tuple[str, ...] = ("WF", "AltMinBF")
    num_channels: int = 1000
    output_dir: str = "results"

    def points(self) -> list[tuple[dict, evaluation.PointConfig]]:
        """Expand swept axes into (axes, point-config) pairs."""
        return [(axes, dataclasses.replace(self.base, **{_KEYS[k][0]: v for k, v in axes.items()}))
                for axes in (dict(zip(self.axes, values))
                             for values in itertools.product(*self.axes.values()))]

    def validate(self) -> None:
        if self.num_channels < 1:
            raise ConfigError(f"num_channels={self.num_channels} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")
        try:  # "ES" in the config and --oracle name ES twice
            evaluation._check_schemes(self.schemes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for axes, cfg in self.points():
            try:
                cfg.validate(self.schemes)
            except ValueError as exc:
                raise ConfigError(f"infeasible point {axes}: {exc}") from exc


# Strict JSON value parsers: a boolean is not a number, a string is neither,
# NaN and Infinity (which json.loads accepts) are not finite numbers, and an
# integer key takes a float only at an integral value (say 1e5).
def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    if not _real(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _schemes(value) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise ValueError(f"expected a list of scheme names, got {value!r}")
    names = tuple(map(_string, value))
    evaluation._check_schemes(names)
    return names


_SV_KEYS = {"num_clusters": _integer, "rays_per_cluster": _integer,
            "angle_spread_deg": _real}


def _sv_params(value) -> channel.SVParams:
    if not isinstance(value, dict):
        raise ValueError("must be an object")
    unknown = set(value) - set(_SV_KEYS)
    if unknown:
        raise ValueError(f"unknown sv keys: {sorted(unknown)}")
    return channel.SVParams(**{k: _SV_KEYS[k](v) for k, v in value.items()})


#: JSON key -> (field, parser), in axis order. ``PointConfig`` fields go to the
#: base point and the rest to ``ExperimentConfig``; an absent key keeps the default.
_KEYS = {
    "Nt": ("nt", _integer), "Nr": ("nr", _integer), "Ns": ("ns", _integer),
    "snr_db": ("snr_db", _real), "b": ("b", _integer),
    "Pt": ("pt", _real), "b_max": ("b_max", _integer), "varsigma": ("varsigma", _real),
    "b_total": ("b_total", lambda v: None if v is None else _integer(v)),
    "eps": ("eps", _real), "max_iter": ("max_iter", _integer), "I2": ("i2", _integer),
    "scoring_max_iter": ("scoring_max_iter", _integer), "sv": ("sv", _sv_params),
    "num_qd_samples": ("num_qd_samples", _integer), "sim_se": ("sim_se", _boolean),
    "seed": ("seed", _integer), "schemes": ("schemes", _schemes),
    "num_channels": ("num_channels", _integer), "output_dir": ("output_dir", _string),
}
_POINT_FIELDS = {f.name for f in dataclasses.fields(evaluation.PointConfig)}


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment config.

    Unknown keys are rejected; missing required keys, malformed values and
    infeasible cross-field combinations raise :class:`ConfigError` with the
    offending key or point named.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise ConfigError(f"missing required config keys: {sorted(missing)}")

    values, axes = {}, {}
    for key in [k for k in _KEYS if k in raw]:
        (name, parse), value = _KEYS[key], raw[key]
        try:
            if key in ("snr_db", "b") or (isinstance(value, list) and name in _POINT_FIELDS
                                          and parse in (_real, _integer)):
                axes[key] = tuple(map(parse, value if isinstance(value, list) else [value]))
                if not axes[key]:
                    raise ValueError("a swept axis needs at least one value")
            else:
                values[name] = parse(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid value for {key!r}: {exc}") from exc

    point = {k: v for k, v in values.items() if k in _POINT_FIELDS}
    run = {k: v for k, v in values.items() if k not in _POINT_FIELDS}
    base = evaluation.PointConfig(**point, **{_KEYS[k][0]: v[0] for k, v in axes.items()})
    config = ExperimentConfig(base=base, axes=axes, **run)
    config.validate()
    return config


def _fmt(value) -> str:
    """Serialize one CSV cell; floats carry 17 significant digits, None is empty."""
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _rows_of(axes: dict, result: evaluation.ExperimentResult) -> list[dict]:
    return [{**axes, "scheme": scheme, **out.summary(), "seed": result.seed}
            for scheme, out in result.outcomes.items()]


def _json_record(axes: dict, result: evaluation.ExperimentResult) -> dict:
    schemes = {
        scheme: {
            **out.summary(),
            "se_apx_per_channel": out.se_apx.tolist(),
            "se_sim_per_channel": None if out.se_sim is None else out.se_sim.tolist(),
            "ee_per_channel": out.ee.tolist(),
            "allocations": [list(a) for a in out.allocations],
            "failures": len(out.failed_channels),
            "failed_channels": out.failed_channels,
            "altmin_unconverged": out.altmin_unconverged,
        }
        for scheme, out in result.outcomes.items()
    }
    return {
        "axes": axes,
        "seed": result.seed,
        "num_channels": result.num_channels,
        "config": dataclasses.asdict(result.config),
        "schemes": schemes,
    }


def write_results(records: list[tuple], format: str, path) -> None:
    """Write collected ``(axes, result)`` point records as CSV rows or a JSON document."""
    path = Path(path)
    if format == "csv":
        columns = [*(records[0][0] if records else ()), *CSV_COLUMNS]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for axes, result in records:
                for row in _rows_of(axes, result):
                    writer.writerow([_fmt(row[c]) for c in columns])
    elif format == "json":
        doc = {"points": [_json_record(axes, result) for axes, result in records]}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, allow_nan=False)
    else:
        raise ValueError(f"unknown results format {format!r}")


def _dump_quantizers(config: ExperimentConfig) -> None:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = distortion_table()
    doc = {}
    for b in sorted({cfg.b for _, cfg in config.points()}):
        q = lloyd_max_design(b)
        doc[str(b)] = {
            "bits": b,
            # the 2**b - 1 finite decision levels; the outer cells are open-ended
            "thresholds": q.thresholds[1:-1].tolist(),
            "codebook": q.codebook.tolist(),
            "gamma": table.gamma(b),
        }
    with open(out_dir / "quantizers.json", "w") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)


def _oracle_outcome(cfg: evaluation.PointConfig, schemes: tuple[str, ...], num_channels: int,
                    seed: int) -> evaluation.ExperimentResult:
    """``run_experiment`` of a point with ES.

    Kept only because ``perfbench/tracer.py`` binds this name; ROADMAP item 2
    deletes it together with that binding.
    """
    return evaluation.run_experiment(cfg, schemes, num_channels, seed)


def run_sweep(config: ExperimentConfig) -> int:
    """Execute all sweep points, streaming results to ``config.output_dir`` per point.

    A scheme ``"ES"`` in ``config.schemes``, in any position, adds the
    exhaustive-oracle row, which ``run_experiment`` runs last on each
    channel and puts last.
    The CSV is rewritten and flushed after each point so an interrupted
    run keeps every completed point. Returns a process exit status (0 on
    success, 1 from the first point that raised; its traceback goes to stderr).
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    json_path = out_dir / "results.json"
    records: list[tuple] = []
    points = config.points()
    run = _oracle_outcome if "ES" in config.schemes else evaluation.run_experiment
    for i, (axes, cfg) in enumerate(points):
        print(f"[{i + 1}/{len(points)}] " + " ".join(f"{k}={v:g}" for k, v in axes.items()))
        try:
            result = run(cfg, config.schemes, config.num_channels, config.seed)
        except Exception:
            print(f"point {axes} failed:\n{traceback.format_exc()}", end="", file=sys.stderr)
            return 1
        records.append((axes, result))
        write_results(records, "csv", csv_path)
        write_results(records, "json", json_path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qmimo",
        description="Batch SE/EE experiments for MIMO links with low-resolution ADCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the sweep described by a JSON config")
    run_p.add_argument("config", help="path to the JSON experiment config")
    run_p.add_argument("--output-dir", default=None,
                       help="override the config's output directory")
    run_p.add_argument("--channels", type=int, default=None,
                       help="override the number of channel realizations")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
    run_p.add_argument("--dump-quantizers", action="store_true",
                       help="also write thresholds/codebook/gamma for each swept b")
    run_p.add_argument("--oracle", action="store_true",
                       help="add an exhaustive-search comparison row (small instances only)")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        config = dataclasses.replace(
            config,
            output_dir=args.output_dir or config.output_dir,
            num_channels=config.num_channels if args.channels is None else args.channels,
            seed=config.seed if args.seed is None else args.seed,
            schemes=config.schemes + ("ES",) * args.oracle,
        )
        config.validate()
        if not config.schemes:
            raise ConfigError("'schemes' is empty: name at least one scheme or pass --oracle")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.dump_quantizers:
            _dump_quantizers(config)
        return run_sweep(config)
    except Exception:
        print(f"run error:\n{traceback.format_exc()}", end="", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
