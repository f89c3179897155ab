"""Command-line interface.

Exit codes are a stable contract: 0 on success, 1 on runtime or data
failures (I/O, parse errors, diverging training, value disagreement in the
benchmark), 2 on usage errors (bad flag values, guard violations, empty
corpora).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from dataclasses import dataclass
from unittest import mock

import numpy as np

from . import inference, oracle
from .chart import LabelSchema, build_mask, classify_nodes
from .data import (
    CorpusRecord,
    Entity,
    SynthConfig,
    gen_synthetic,
    read_corpus,
    write_corpus,
)
from .errors import BadConfig, EmptyCorpus, TooLarge, TreecrfError
from .inference import (
    batched_masked_inside,
    cky_decode,
    inside,
    marginals,
    masked_inside,
    tree_score,
    vanilla_partial_marginalization,
)
from .scorer import load_model, save_model
from .train import (
    TrainConfig,
    evaluate,
    format_eval_report,
    predict,
    sweep_latent_labels,
    train,
    write_training_log,
)


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        epsilon_smoothing=args.epsilon,
        seed=args.seed,
        latent_label_count=args.latent,
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
    )


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="structure smoothing for rejected cells")
    p.add_argument("--latent", type=int, default=1, help="latent label count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--embed-dim", type=int, default=16)
    p.add_argument("--hidden-dim", type=int, default=32)


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = SynthConfig(
        num_sentences=args.sentences,
        vocab_size=args.vocab,
        num_entity_types=args.types,
        max_nesting_depth=args.depth,
        max_length=args.max_length,
        seed=args.seed,
    )
    records = gen_synthetic(cfg)
    write_corpus(records, args.out)
    n_entities = sum(len(r.entities) for r in records)
    print(f"wrote {len(records)} sentences ({n_entities} entities) to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    records = read_corpus(args.data)
    config = _train_config(args)
    result = train(records, config)
    for row in result.log:
        print(
            f"epoch {row.epoch:3d}  loss {row.mean_loss:9.4f}  "
            f"dev P {row.dev_precision:.4f} R {row.dev_recall:.4f} "
            f"F1 {row.dev_f1:.4f}",
            file=sys.stderr,
        )
    save_model(result.params, args.model)
    log_path = args.log or args.model + ".train.csv"
    write_training_log(result.log, log_path)
    print(f"model written to {args.model} (best epoch {result.best_epoch})")
    print(f"training log written to {log_path}")
    print("dev results:")
    print(format_eval_report(result.dev_report))
    r = result.dev_report
    print(
        f"RESULT split=dev precision={r.precision:.6f} "
        f"recall={r.recall:.6f} f1={r.f1:.6f}"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    params = load_model(args.model)
    records = read_corpus(args.data)
    schema = params.config.schema
    out = []
    for record in records:
        spans = predict(params, record.tokens)
        entities = tuple(
            Entity(start=s.start, end=s.end + 1, label=schema.observed_labels[s.label])
            for s in spans
        )
        out.append(CorpusRecord(tokens=record.tokens, entities=entities))
    write_corpus(out, args.out)
    print(f"wrote predictions for {len(out)} sentences to {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    params = load_model(args.model)
    records = read_corpus(args.data)
    report = evaluate(params, records)
    print(format_eval_report(report))
    print(
        f"RESULT precision={report.precision:.6f} recall={report.recall:.6f} "
        f"f1={report.f1:.6f} gold={report.gold_count} "
        f"predicted={report.predicted_count} matched={report.matched_count}"
    )
    return 0


@dataclass
class _CheckResult:
    name: str
    cases: int
    failures: int
    worst: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.failures == 0 else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return (
            f"{status}  {self.name}: {self.cases} cases, "
            f"{self.failures} failures, worst error {self.worst:.3e}{extra}"
        )


def _case_schema(rng: np.random.Generator) -> LabelSchema:
    n_labels = int(rng.integers(2, 5))
    n_observed = int(rng.integers(1, n_labels))
    names = tuple(f"L{i}" for i in range(n_observed))
    return LabelSchema(observed_labels=names, latent_label_count=n_labels - n_observed)


def run_selfcheck(max_n: int, cases: int, seed: int) -> list[_CheckResult]:
    """Certify the chart DP against the enumeration oracles."""
    if max_n > oracle.MAX_ORACLE_N:
        raise TooLarge(
            f"--max-n {max_n} exceeds the oracle guard ({oracle.MAX_ORACLE_N})"
        )
    if max_n < 1 or cases < 1:
        raise BadConfig("--max-n and --cases must be positive")
    rng = np.random.default_rng(seed)

    partition = _CheckResult("inside equals enumerated log-partition", 0, 0, 0.0)
    three_way = _CheckResult("masked = vanilla = enumerated partial score", 0, 0, 0.0)
    marginal = _CheckResult("marginal identities and enumerated posteriors", 0, 0, 0.0)
    decode = _CheckResult("decoder equals enumerated best tree", 0, 0, 0.0)
    full_eval = _CheckResult("full-tree mask recovers tree evaluation", 0, 0, 0.0)

    for case in range(cases):
        n = case % max_n + 1
        schema = _case_schema(rng)
        chart = oracle.random_chart(n, schema, rng)
        tree = oracle.random_partial_tree(n, schema, rng, multilabel_prob=0.1)
        symbols = classify_nodes(tree)
        mask = build_mask(symbols, schema)

        err = abs(inside(chart) - oracle.brute_force_log_z(chart))
        partition.cases += 1
        partition.worst = max(partition.worst, err)
        partition.failures += err > 1e-8

        mi = masked_inside(chart, mask)
        vp = vanilla_partial_marginalization(chart, symbols)
        bf = oracle.brute_force_partial_score(chart, symbols)
        err = max(abs(mi - vp), abs(mi - bf))
        three_way.cases += 1
        three_way.worst = max(three_way.worst, err)
        three_way.failures += err > 1e-6

        mu = marginals(chart).mu
        node_count = abs(mu.sum() - (2 * n - 1))
        leaf_root = max(
            max(abs(mu[i, i, :].sum() - 1.0) for i in range(n)),
            abs(mu[0, n - 1, :].sum() - 1.0),
        )
        bounds_ok = bool((mu >= 0.0).all() and (mu <= 1.0).all())
        vs_oracle = np.abs(mu - oracle.brute_force_marginals(chart).mu).max()
        mu_masked = marginals(chart, mask).mu
        vs_oracle_masked = np.abs(
            mu_masked - oracle.brute_force_marginals(chart, symbols).mu
        ).max()
        err = max(node_count, leaf_root, vs_oracle, vs_oracle_masked)
        marginal.cases += 1
        marginal.worst = max(marginal.worst, err)
        marginal.failures += (
            node_count > 1e-6
            or leaf_root > 1e-9
            or not bounds_ok
            or vs_oracle > 1e-6
            or vs_oracle_masked > 1e-6
        )

        decoded = cky_decode(chart)
        best = oracle.brute_force_best_tree(chart)
        same = decoded.nodes == best.nodes and tree_score(chart, decoded) == tree_score(
            chart, best
        )
        decode.cases += 1
        decode.failures += not same

        target = oracle.random_chart(n, schema, rng)
        probe = cky_decode(target)
        tree_mask = inference.mask_from_full_tree(probe, schema)
        err = abs(masked_inside(chart, tree_mask) - tree_score(chart, probe))
        full_eval.cases += 1
        full_eval.worst = max(full_eval.worst, err)
        full_eval.failures += err > 1e-6

    return [partition, three_way, marginal, decode, full_eval]


def cmd_selfcheck(args: argparse.Namespace) -> int:
    fault = contextlib.nullcontext()
    if args.inject_fault:
        # Flip the sign of the right split operand inside the DP, for this
        # run only, to show that the checks catch a broken kernel.
        split_operands = inference._split_operands

        def flipped(flat, n, w):
            left, right = split_operands(flat, n, w)
            return left, -right

        fault = mock.patch.object(inference, "_split_operands", flipped)
    with fault:
        results = run_selfcheck(args.max_n, args.cases, args.seed)
    for result in results:
        print(result.line())
    return 0 if all(r.failures == 0 for r in results) else 1


def cmd_bench(args: argparse.Namespace) -> int:
    if args.batch < 1 or args.length < 1 or args.labels < 2 or args.repeats < 1:
        raise BadConfig(
            "--batch, --length, --repeats must be positive and --labels >= 2"
        )
    rng = np.random.default_rng(args.seed)
    schema = LabelSchema(
        observed_labels=tuple(f"L{i}" for i in range(args.labels - 1)),
        latent_label_count=1,
    )
    charts = []
    symbol_trees = []
    masks = []
    for _ in range(args.batch):
        charts.append(oracle.random_chart(args.length, schema, rng))
        tree = oracle.random_partial_tree(args.length, schema, rng)
        symbols = classify_nodes(tree)
        symbol_trees.append(symbols)
        masks.append(build_mask(symbols, schema))

    rows = []
    worst = 0.0
    for repeat in range(args.repeats):
        t0 = time.perf_counter()
        vanilla_values = [
            vanilla_partial_marginalization(chart, symbols)
            for chart, symbols in zip(charts, symbol_trees)
        ]
        t_vanilla = time.perf_counter() - t0
        t0 = time.perf_counter()
        batched_values = batched_masked_inside(charts, masks)
        t_batched = time.perf_counter() - t0
        discrepancy = float(
            np.abs(np.array(vanilla_values) - batched_values).max()
        )
        worst = max(worst, discrepancy)
        rows.append(
            (
                args.batch,
                args.length,
                args.labels,
                t_vanilla,
                t_batched,
                t_vanilla / t_batched,
                discrepancy,
            )
        )

    print(
        "batch_size,sentence_length,label_count,vanilla_time,"
        "masked_batched_time,speedup_ratio,max_value_discrepancy"
    )
    for row in rows:
        b, n, k, tv, tb, ratio, disc = row
        print(f"{b},{n},{k},{tv:.6f},{tb:.6f},{ratio:.3f},{disc:.3e}")
    median_ratio = float(np.median([r[5] for r in rows]))
    print(
        f"summary: median speedup {median_ratio:.2f}x over {args.repeats} repeats, "
        f"max value discrepancy {worst:.3e}",
        file=sys.stderr,
    )
    if worst > 1e-6:
        print("error: the two paths disagree; benchmark void", file=sys.stderr)
        return 1
    return 0


def cmd_sweep_latent(args: argparse.Namespace) -> int:
    try:
        counts = [int(c) for c in args.counts.split(",") if c.strip()]
    except ValueError:
        raise BadConfig(
            f"--counts must be comma-separated integers, got {args.counts!r}"
        ) from None
    if not counts:
        raise BadConfig("--counts must name at least one latent label count")
    records = read_corpus(args.data)
    rows = sweep_latent_labels(records, _train_config(args), counts)
    print(
        "# context: on real nested-entity corpora, adding latent labels tends to"
    )
    print(
        "# raise recall and lower precision; the trend is dataset-dependent and"
    )
    print("# is reported here for inspection, not asserted.")
    print("latent_labels,dev_precision,dev_recall,dev_f1")
    for count, report in rows:
        print(f"{count},{report.precision:.6f},{report.recall:.6f},{report.f1:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecrf",
        description="Partially-observed TreeCRF engine for nested span recognition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic nested-entity corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--sentences", type=int, default=2000)
    p.add_argument("--types", type=int, default=3)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab", type=int, default=50)
    p.add_argument("--max-length", type=int, default=20)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on a corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--log", default=None, help="training log path (CSV)")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="decode entities for a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against gold entities")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selfcheck", help="certify the DP against the oracle")
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--inject-fault",
        action="store_true",
        dest="inject_fault",
        help=argparse.SUPPRESS,
    )
    p.set_defaults(func=cmd_selfcheck)

    p = sub.add_parser(
        "bench", help="time vanilla vs batched masked partial marginalization"
    )
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--length", type=int, default=40)
    p.add_argument("--labels", type=int, default=8)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "sweep-latent", help="train once per latent label count and tabulate"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--counts", default="1,2,3,4")
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep_latent)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BadConfig, EmptyCorpus, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TreecrfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
