"""Command-line interface: generate | train | evaluate | verify | bench | sweep.

Every command is deterministic given its config and seed. Exit codes:
0 success, 1 check or acceptance failure, 2 usage error. The env var
PAUC_SEED, when set, overrides any configured seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import reprlib
import sys
import typing
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

import numpy as np

from .data import SplitSpec, generate_synthetic, load_csv, row_blocks, save_csv, split
from .metrics import empirical_auc, empirical_opauc, empirical_tpauc
# bound under the old name, which perfbench's tracer wraps to time the ROC
# (metrics.roc_s); cmd_evaluate looks it up here
from .metrics import roc_points as roc_curve
from .objectives import FLAT_SCALARS, ObjectiveConfig, best_response
from .scorer import ScorerParams, init_scorer, score_batch, warmup_logistic
from .solver import SolverConfig, TraceRecord, _val_pauc, check_val_counts, train
# .bench and .verify are imported by the commands that run them, so that no
# other command pays for their imports


def _resolve_seed(args) -> None:
    """Put PAUC_SEED, when set, in place of --seed, and reject a seed numpy
    would, naming where it came from."""
    env = os.environ.get("PAUC_SEED")
    if env:
        try:
            args.seed = int(env)
        except ValueError:
            raise ValueError(f"PAUC_SEED must be an integer, got {env!r}") from None
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"{'PAUC_SEED' if env else '--seed'} must be at least 0, "
                         f"got {args.seed}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    ds = _build(generate_synthetic, _SYNTHETIC_FLAGS, args.n, args.imbalance, args.dim,
                args.separation, args.seed)
    _build(save_csv, {"label_column": "--label-col"}, ds, args.output, args.label_col)
    print(f"wrote {args.output}: n={ds.n} n_pos={ds.n_pos} n_neg={ds.n_neg}")
    return 0


# Run-config sections read into a dataclass, less the fields the command sets
# or nothing reads; the dataclass gives each key its type and default.
_DATACLASS_SECTIONS = {"split": (SplitSpec, ()), "objective": (ObjectiveConfig, ("prior_p",)),
                       "solver": (SolverConfig, ("seed", "freeze_theta"))}
# Run-config spellings of the fields whose key differs from the name.
_SPELLINGS = {"metric": "metric_kind", "lambda": "lam", "k": "k_coef", "m": "m_coef", "dim": "d"}
_CONFIG_KEYS = {name: key for key, name in _SPELLINGS.items()}
# (type, default) of each key of the other sections ("" is the top level); a
# seed left at None is the run seed.
_PLAIN_SECTIONS = {
    "": {"seed": (int, 0)},
    "dataset": {"csv": (str, None), "label_col": (str, "label")},
    "dataset.synthetic": {"n": (int, 2000), "imbalance": (float, 0.1), "dim": (int, 5),
                          "separation": (float, 4.0), "seed": (int, None)},
    "scorer": {"kind": (typing.Literal["linear", "mlp"], "linear"), "hidden": (list[int], [8])},
}


def _key_types() -> dict:
    """{section: {key: type}} of the run config. Each section is an object key
    of its parent."""
    types = {name: {key: kind for key, (kind, _) in keys.items()}
             for name, keys in _PLAIN_SECTIONS.items()}
    for section, (cls, skip) in _DATACLASS_SECTIONS.items():
        types[section] = {_CONFIG_KEYS.get(name, name): kind for name, kind
                          in typing.get_type_hints(cls).items() if name not in skip}
    for section in filter(None, list(types)):
        parent, _, key = section.rpartition(".")
        types[parent][key] = dict
    return types


_KEY_TYPES = _key_types()
# _build's names of each run-config section: each field by its config key
_CONFIG_NAMES = {section: {"": f"config {section}",
                           **{_SPELLINGS.get(key, key): f"config {section}.{key}" for key in keys}}
                 for section, keys in _KEY_TYPES.items()}
_TYPE_NAMES = {dict: "an object", list[int]: "a list of integers",
               list[float]: "a list of numbers", str: "a string", int: "an integer",
               float: "a number"}


def _type_name(kind) -> str:
    if typing.get_origin(kind) is typing.Literal:
        return f"one of {', '.join(map(repr, typing.get_args(kind)))}"
    return _TYPE_NAMES[kind]


def _has_type(value, kind) -> bool:
    """isinstance over JSON values: an int is also a number, a bool is neither
    (no run-config key takes a bool), list[T] is a list of T values, and a
    Literal is one of its values."""
    if typing.get_origin(kind) is typing.Literal:
        return value in typing.get_args(kind)
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(_has_type(v, *typing.get_args(kind))
                                               for v in value)
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def _read_sections(doc) -> dict:
    """{section: values} of a run config, each key checked against _KEY_TYPES
    before any data is read, under their field names. A plain section has its
    defaults filled in; a dataclass section holds the keys given."""
    if not isinstance(doc, dict):
        raise ValueError("config top-level must be a JSON object")
    sections = {}
    for section, types in _KEY_TYPES.items():
        parent, _, key = section.rpartition(".")
        entry = sections[parent].get(key, {}) if section else doc
        unknown = sorted(set(entry) - set(types))
        if unknown:
            raise ValueError(f"unknown {section or 'top-level'} key(s) "
                             f"{', '.join(map(repr, unknown))}; known: {', '.join(sorted(types))}")
        for key, value in entry.items():
            if not _has_type(value, types[key]):
                raise ValueError(f"config {f'{section}.{key}'.lstrip('.')} must be "
                                 f"{_type_name(types[key])}, got {value!r}")
        defaults = {key: default for key, (_, default) in _PLAIN_SECTIONS.get(section, {}).items()}
        sections[section] = {_SPELLINGS.get(key, key): value
                             for key, value in {**defaults, **entry}.items()}
    return sections


def _build(fn, names: dict, /, *args, **values):
    """fn(*args, **values), with a range error reworded to name the value as
    the user typed it: names maps a field to that spelling (`--dim`, `config
    dataset.synthetic.dim`) and "" to the prefix of an error naming no field."""
    try:
        return fn(*args, **values)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        if name in names:
            raise type(exc)(f"{names[name]} {rest}") from None
        if "" in names:
            raise type(exc)(f"{names['']}: {exc}") from None
        raise


def _load_run_config(args):
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    sections = _read_sections(doc)
    seed = args.seed if args.seed is not None else sections[""]["seed"]

    dsrc, syn = sections["dataset"], sections["dataset.synthetic"]
    # a key that would be read for nothing is an error, not a silent no-op
    given = doc.get("dataset", {})
    if "csv" in given and "synthetic" in given:
        raise ValueError("config dataset.synthetic has no effect beside dataset.csv")
    if "csv" not in given and "label_col" in given:
        raise ValueError("config dataset.label_col has no effect without dataset.csv")
    sc = sections["scorer"]
    if sc["kind"] == "linear" and "hidden" in doc.get("scorer", {}):
        raise ValueError("config scorer.hidden has no effect beside scorer.kind linear")
    # here, as init_scorer needs the data's dim: a bad width fails before data is read
    if not all(width >= 1 for width in sc["hidden"]):
        raise ValueError(f"config scorer.hidden widths must be at least 1, got {sc['hidden']}")
    # a seed is named by the key it is read from; main has checked --seed and
    # PAUC_SEED, which stand in for the top-level seed
    run_seed = {"seed": "config seed"}
    names = {**_CONFIG_NAMES["split"], **({} if "seed" in sections["split"] else run_seed)}
    spec = _build(SplitSpec, names, **{"seed": seed, **sections["split"]})
    obj_cfg = _build(ObjectiveConfig, _CONFIG_NAMES["objective"], **sections["objective"])
    if "alpha" in doc.get("objective", {}) and obj_cfg.metric_kind == "OPAUC":
        raise ValueError("config objective.alpha has no effect beside objective.metric OPAUC")
    so, names = sections["solver"], {**_CONFIG_NAMES["solver"], **run_seed}
    if args.T is not None:
        so["T"], names = args.T, {**names, "T": "--T"}
    solver_cfg = _build(SolverConfig, names, **so, seed=seed)

    if dsrc["csv"] is not None:
        ds = load_csv(dsrc["csv"], dsrc["label_col"])
        names = {"": f"config dataset.csv {dsrc['csv']}"}
    else:
        names = _CONFIG_NAMES["dataset.synthetic"]
        ds = _build(generate_synthetic, names,
                    **{**syn, "seed": seed if syn["seed"] is None else syn["seed"]})
    ds_train, ds_val, ds_test = _build(split, names, ds, spec)
    # train checks this too, but after cmd_train has made --out
    _build(check_val_counts, _CONFIG_NAMES["objective"], ds_val, obj_cfg)
    scorer = init_scorer(sc["kind"], ds.dim, tuple(sc["hidden"]), seed=seed)
    return ds_train, ds_val, ds_test, scorer, obj_cfg, solver_cfg


def _write_trace(trace, path: Path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(f.name for f in fields(TraceRecord))
        w.writerows(astuple(r) for r in trace.records)


def cmd_train(args) -> int:
    ds_train, ds_val, _, scorer, obj_cfg, solver_cfg = _load_run_config(args)
    out = _out_dir(args)
    tau, xv, trace = train(ds_train, ds_val, scorer, solver_cfg, obj_cfg)
    _write_trace(trace, out / "trace.csv")

    checkpoint = {
        "scorer": tau.theta.to_dict(),
        "min_vars": {name: getattr(tau, name) for name in FLAT_SCALARS},
        "gamma": xv.gamma,
    }
    if trace.best_tau is not None:
        checkpoint["best_scorer"] = trace.best_tau.theta.to_dict()
    (out / "checkpoint.json").write_text(json.dumps(checkpoint, indent=2),
                                         encoding="utf-8")

    rep = _val_pauc(tau, ds_val, obj_cfg)
    report = asdict(rep)
    report["last_iterate_val_pauc"] = rep.value
    report["best_iterate_val_pauc"] = trace.best_val_pauc
    (out / "report.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(json.dumps(report))
    return 0


# JSON type of each key of a checkpoint's scorer object
_SCORER_KEYS = {"kind": str, "layer_dims": list[int], "weights": list[float]}


def cmd_evaluate(args) -> int:
    doc = json.loads(Path(args.checkpoint).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or not isinstance(doc.get("scorer"), dict):
        raise ValueError(f"{args.checkpoint}: no scorer object")
    entry = doc["scorer"]
    for key, kind in _SCORER_KEYS.items():
        if key not in entry:
            raise ValueError(f"{args.checkpoint}: scorer object has no {key!r} key")
        if not _has_type(entry[key], kind):
            raise ValueError(f"{args.checkpoint}: scorer object: {key} must be "
                             f"{_type_name(kind)}, got {reprlib.repr(entry[key])}")
    # an unknown kind, layer_dims and weights that do not fit, a non-finite
    # weight or an input width the data lacks names the file
    scorer = _build(ScorerParams.from_dict, {"": f"{args.checkpoint}: scorer object"}, entry)
    ds = load_csv(args.data, args.label_col)
    scores = _build(score_batch, {"": args.checkpoint}, scorer, ds.features)
    # the features are freed before the classes are taken, which are copies
    # taken by the class mask: no class ids are built
    is_pos = ds.labels.view(bool)
    del ds
    pos, neg = scores[is_pos], scores[~is_pos]
    del scores, is_pos
    # each class sorted once, in place: the metrics and the ROC read a class
    # only as a multiset, and their own sorts, partitions and searchsorted
    # calls run faster on sorted input
    pos.sort()
    neg.sort()
    # before the first line is printed: an unusable --out leaves stdout empty
    out = _out_dir(args) if args.out else None

    for alpha, beta in args.at:
        if alpha >= 1.0 and beta >= 1.0:
            rep = empirical_auc(pos, neg)
        elif alpha >= 1.0:
            rep = empirical_opauc(pos, neg, beta)
        else:
            rep = empirical_tpauc(pos, neg, alpha, beta)
        print(rep.to_json())

    if out is not None:
        fpr, tpr = roc_curve(pos, neg)
        with open(out / "roc.csv", "w", newline="", encoding="utf-8") as fh:
            _roc_csv(fpr, tpr, fh)
        (out / "roc.svg").write_text(_roc_svg(fpr, tpr), encoding="utf-8")
    return 0


def _roc_csv(fpr: np.ndarray, tpr: np.ndarray, fh) -> None:
    """Write to the text file fh the bytes csv.writer writes for the rows (fpr,
    tpr): a float cell is its repr, CRLF ends a row. The rows are formatted one
    row_blocks block at a time, so the text held does not grow with the rows."""
    fh.write("fpr,tpr\r\n")
    for block in row_blocks(len(fpr), 2):
        # one expression, so that no block's text is alive beside the next one's
        fh.write("".join(np.stack([_reprs(fpr[block], ","), _reprs(tpr[block], "\r\n")],
                                  axis=1).ravel().tolist()))


def _reprs(v: np.ndarray, end: str) -> np.ndarray:
    """repr(x) + end for each x of v, as an object array. Each distinct value is
    formatted once; values are told apart by their bits, so 0.0 and -0.0 differ."""
    bits, inverse = np.unique(v.view(np.int64), return_inverse=True)
    text = np.array([f"{x!r}{end}" for x in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse]


# generate_synthetic's fields by their flags; a rule over several values, such
# as that a split keep both classes, names the two that set the class sizes
_SYNTHETIC_FLAGS = {"": "--n, --imbalance", "n": "--n", "imbalance": "--imbalance",
                    "d": "--dim", "separation": "--separation"}


def _synthetic_flags(parser, **defaults):
    """Add --n, --imbalance, --dim and --separation, each required unless given a default."""
    for name, kind in (("n", int), ("imbalance", float), ("dim", int), ("separation", float)):
        parser.add_argument(f"--{name}", type=kind, required=name not in defaults,
                            default=defaults.get(name))


def _metric_point(text: str) -> tuple[float, float]:
    """An --at value: ALPHA,BETA, two numbers in (0, 1]."""
    try:
        alpha, beta = (float(v) for v in text.split(","))
    except ValueError:
        alpha = beta = float("nan")
    if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not ALPHA,BETA with both in (0, 1]")
    return alpha, beta


def _roc_svg(fpr: np.ndarray, tpr: np.ndarray) -> str:
    """Minimal hand-rolled polyline rendering of an ROC curve. A point whose
    printed coordinates repeat the previous point's is left out: it would
    draw nothing. The points are printed one row_blocks block at a time; the
    text kept is bounded by the grid of printed coordinates, not by n."""
    size, margin = 400, 20    # px: the square and the frame's inset
    span = size - 2 * margin
    texts, last = [], None
    for block in row_blocks(len(fpr), 2):
        cx = _hundredths(margin + fpr[block] * span)
        cy = _hundredths(margin + (1.0 - tpr[block]) * span)
        keep = np.empty(len(cx), dtype=bool)
        # the first point of a block is compared with the last of the one before
        keep[0] = last is None or (cx[0], cy[0]) != last
        keep[1:] = (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])
        last = cx[-1], cy[-1]
        # one row of characters per point; NUL marks a leading zero left out
        chars = np.hstack([_decimal_chars(cx[keep], ","), _decimal_chars(cy[keep], " ")])
        texts.append(chars.tobytes().replace(b"\0", b"").decode("ascii"))
    points = "".join(texts)[:-1]
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">\n'
        f'  <rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        f'fill="none" stroke="black"/>\n'
        f'  <line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{margin}" stroke="gray" stroke-dasharray="4"/>\n'
        f'  <polyline points="{points}" fill="none" stroke="crimson" '
        f'stroke-width="1.5"/>\n'
        f"</svg>\n"
    )


def _decimal_chars(count: np.ndarray, end: str) -> np.ndarray:
    """The characters of f"{c / 100:.2f}{end}" for each count c in [0, 10^5), a
    row of 7 uint8 codes each; NUL stands for a leading zero that is not printed."""
    count = count.astype(np.int64)
    chars = np.empty((len(count), 7), dtype=np.uint8)
    # one scalar divisor per column: numpy divides by a scalar integer fastest
    for col, place in zip((0, 1, 2, 4, 5), (10_000, 1_000, 100, 10, 1)):
        chars[:, col] = count // place % 10 + ord("0")
    chars[count < 10_000, 0] = 0
    chars[count < 1_000, 1] = 0
    chars[:, 3], chars[:, 6] = ord("."), ord(end)
    return chars


def _hundredths(v: np.ndarray) -> np.ndarray:
    """The integer number of hundredths f"{v:.2f}" prints, for each v >= 0."""
    h = v * 100.0
    count = np.rint(h)
    # h is v * 100 rounded once, so it lies within 1e-9 of a half only near a
    # rounding boundary; there rint can round otherwise than f"{v:.2f}" does
    near = np.abs(h - np.floor(h) - 0.5) < 1e-9
    count[near] = [int(f"{t:.2f}".replace(".", "")) for t in v[near].tolist()]
    return count


def cmd_verify(args) -> int:
    from .verify import reports_to_json, run_all_checks

    only = set(args.only) if args.only else None
    checks = _build(run_all_checks, {"trials": "--trials", "only": "--only"}, seed=args.seed,
                    only=only, trials=args.trials)
    # after the flag checks, so that a bad count leaves no directory behind,
    # and before the first check
    out = _out_dir(args) if args.out else None
    reports = [check() for check in checks]
    text = reports_to_json(reports)
    if out is not None:
        (out / "verify.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if all(r.passed for r in reports) else 1


def cmd_bench(args) -> int:
    from .bench import BENCH_COLUMNS, bench_document, bench_rows

    out = _out_dir(args)    # an unusable --out fails before the timings
    rows = bench_rows(args.seed)
    doc = None if args.label is None else bench_document(args.label, rows, args.seed)
    with open(out / "timings.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(BENCH_COLUMNS)
        w.writerows(rows)
    for row in rows:
        print(",".join(str(v) for v in row))
    if doc is not None:
        (out / f"BENCH_{args.label}.json").write_text(json.dumps(doc, indent=2) + "\n",
                                                      encoding="utf-8")
    return 0


def cmd_sweep(args) -> int:
    seed = args.seed
    # every flag is checked before any data is made
    flags = {"kappa": "--kappas", "beta": "--beta", "omega": "--omega", "T": "--T"}
    obj_cfg = _build(ObjectiveConfig, flags, metric_kind="OPAUC", formulation="surrogate",
                     beta=args.beta, omega=args.omega)
    # the surrogate at each kappa, then the unbiased form, whose row's kappa is None
    runs = [(_build(replace, flags, obj_cfg, kappa=kappa), kappa) for kappa in args.kappas]
    runs.append((replace(obj_cfg, formulation="unbiased"), None))
    solver_cfg = _build(SolverConfig, flags, nu=0.05, lam=1.0, k_coef=1.0, m_coef=27.0,
                        T=args.T, seed=seed, freeze_theta=True, eval_every=max(1, args.T))
    ds = _build(generate_synthetic, _SYNTHETIC_FLAGS, args.n, args.imbalance, args.dim,
                args.separation, seed)
    ds_train, _, _ = _build(split, _SYNTHETIC_FLAGS, ds, SplitSpec(seed=seed))
    out = _out_dir(args)    # after every value check, before the warm-up and the runs
    # warm the scorer once, then freeze it: the sweep isolates how each
    # hinge treatment places the selection threshold on a fixed loss
    # distribution, which a still-moving scorer would pull from under it
    scorer = warmup_logistic(init_scorer("linear", ds.dim, seed=seed),
                             ds_train, 2, 0.3, seed=seed)
    # beta-tilde: the share of negatives the exact hinge selects. Every run
    # shares the scorer and the solver seed, so only the hinge treatment moves
    hinge_cfg = replace(obj_cfg, formulation="unbiased", omega=0.0)
    rows = []
    for cfg, kappa in runs:
        tau, xv, _ = train(ds_train, None, scorer, solver_cfg, cfg)
        selected = best_response(hinge_cfg, tau, xv.gamma, ds_train)
        beta_eff = float(selected[ds_train.neg_ids].mean())
        rows.append({"kind": cfg.formulation, "kappa": kappa, "beta_eff": beta_eff,
                     "beta_dev": abs(beta_eff - cfg.beta)})
    # strict JSON: a non-finite value is a ValueError (exit 2), not a bare NaN
    text = json.dumps(rows, indent=2, allow_nan=False)
    (out / "sweep.json").write_text(text, encoding="utf-8")
    for row in rows:
        print(json.dumps(row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="paucopt",
                                description="Partial-AUC minimax optimization")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic imbalanced CSV")
    _synthetic_flags(g, dim=5, separation=2.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--label-col", default="label")
    g.add_argument("--output", default="synthetic.csv")
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("train", help="run the descent-ascent optimizer")
    t.add_argument("--config", required=True)
    t.add_argument("--T", type=int, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", default="out")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("evaluate", help="score a CSV with a checkpoint")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--label-col", default="label")
    e.add_argument("--at", nargs="+", type=_metric_point, default=[(1.0, 1.0)],
                   metavar="ALPHA,BETA", help="metric points in (0, 1], e.g. 1,0.3 0.5,0.5")
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_evaluate)

    v = sub.add_parser("verify", help="run the numerical verification suite")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--only", nargs="+", default=None, metavar="CHECK")
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="per-step timing at batch sizes 64, 128, 256 and 512")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default="out")
    b.add_argument("--label", default=None,
                   help="also time solver steps at n = 2e3, 2e5, 2e6 and whole train, "
                        "generate and evaluate commands, each in a fresh interpreter; "
                        "write BENCH_<label>.json")
    b.set_defaults(fn=cmd_bench)

    s = sub.add_parser("sweep", help="softplus-sharpness sensitivity sweep")
    s.add_argument("--kappas", nargs="+", type=float, default=[2.0, 32.0])
    _synthetic_flags(s, n=2000, imbalance=0.3, dim=5, separation=1.0)
    s.add_argument("--beta", type=float, default=0.3)
    s.add_argument("--omega", type=float, default=0.1)
    s.add_argument("--T", type=int, default=3000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="out")
    s.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "seed" in args:
            # evaluate takes no seed, and pays nothing for this
            _resolve_seed(args)
        return args.fn(args)
    except (OSError, ValueError) as exc:
        # bad flags, configs or inputs, and paths that cannot be read or
        # written; every other paucopt error and JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
