"""Command-line interface.

Exit codes are a stable contract: 0 on success, 1 on runtime or data
failures (I/O, parse errors, diverging training, value disagreement in the
benchmark), 2 on usage errors (bad flag values, guard violations, empty
corpora).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import inference, oracle
from .chart import LabelSchema, build_mask, pack_cells
from .data import (
    CorpusRecord,
    Entity,
    SynthConfig,
    gen_synthetic,
    read_corpus,
    write_corpus,
)
from .errors import BadConfig, EmptyCorpus, TooLarge, TreecrfError, integer
from .inference import (
    batch_cky_decode,
    batch_loss_and_score_gradient,
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
    batch_predict,
    evaluate,
    format_eval_report,
    train,
    write_training_log,
)


def _train_config(args: argparse.Namespace, **fields) -> TrainConfig:
    """The config of the shared training flags; ``fields`` set the others."""
    return TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        epsilon_smoothing=args.epsilon,
        seed=args.seed,
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
        **fields,
    )


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    d = TrainConfig()
    p.add_argument("--epochs", type=int, default=d.epochs)
    p.add_argument("--lr", type=float, default=d.learning_rate)
    p.add_argument("--epsilon", type=float, default=d.epsilon_smoothing,
                   help="structure smoothing for rejected cells")
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--batch", type=int, default=d.batch_size)
    p.add_argument("--embed-dim", type=int, default=d.embed_dim)
    p.add_argument("--hidden-dim", type=int, default=d.hidden_dim)


def _check_outputs(outputs: dict[str, str], inputs: dict[str, str]) -> None:
    """Raise, before any work is done, the error that writing ``outputs``
    (flag -> path) at the end would.  No output may resolve, symlinks
    followed, to one of the command's ``inputs`` or to another output;
    each output's directory must exist, and the output must not be one."""
    claimed = {os.path.realpath(path): flag for flag, path in inputs.items()}
    for flag, path in outputs.items():
        other = claimed.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise BadConfig(f"{flag} and {other} name the same file: {path!r}")
    for path in outputs.values():
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise FileNotFoundError(
                errno.ENOENT, f"no directory {directory!r} for output file", path
            )
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, "output file is a directory", path)


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = SynthConfig(
        num_sentences=args.sentences,
        vocab_size=args.vocab,
        num_entity_types=args.types,
        max_nesting_depth=args.depth,
        max_length=args.max_length,
        seed=args.seed,
    )
    _check_outputs({"--out": args.out}, {})
    records = gen_synthetic(cfg)
    write_corpus(records, args.out)
    n_entities = sum(len(r.entities) for r in records)
    print(f"wrote {len(records)} sentences ({n_entities} entities) to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _train_config(args, latent_label_count=args.latent)
    log_path = args.log or args.model + ".train.csv"
    _check_outputs({"--model": args.model, "--log": log_path}, {"--data": args.data})
    records = read_corpus(args.data)
    result = train(records, config)
    for row in result.log:
        print(
            f"epoch {row.epoch:3d}  loss {row.mean_loss:9.4f}  "
            f"dev P {row.dev_precision:.4f} R {row.dev_recall:.4f} "
            f"F1 {row.dev_f1:.4f}",
            file=sys.stderr,
        )
    save_model(result.params, args.model)
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
    _check_outputs({"--out": args.out}, {"--model": args.model, "--data": args.data})
    params = load_model(args.model)
    records = read_corpus(args.data)
    schema = params.config.schema
    out = []
    predictions = batch_predict(params, (record.tokens for record in records))
    for record, spans in zip(records, predictions):
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
    """One certification check's tally over its cases.

    The one pass rule: a case fails unless ``ok`` holds and every error is
    ``<=`` its own tolerance (one tolerance may stand for all), so a NaN
    error fails; the worst error is the ``np.max`` over every case's
    errors, which keeps a NaN.
    """

    name: str
    cases: int = 0
    failures: int = 0
    worst: float = 0.0

    def add(self, errors=(), tolerances=(), ok: bool = True) -> None:
        self.cases += 1
        self.worst = float(np.max(np.append(self.worst, errors)))
        self.failures += not (ok and np.all(np.less_equal(errors, tolerances)))

    def line(self) -> str:
        status = "PASS" if self.failures == 0 else "FAIL"
        return (
            f"{status}  {self.name}: {self.cases} cases, "
            f"{self.failures} failures, worst error {self.worst:.3e}"
        )


def _case_schema(rng: np.random.Generator) -> LabelSchema:
    n_labels = int(rng.integers(2, 5))
    n_observed = int(rng.integers(1, n_labels))
    names = tuple(f"L{i}" for i in range(n_observed))
    return LabelSchema(observed_labels=names, latent_label_count=n_labels - n_observed)


def _random_case(n: int, schema: LabelSchema, rng: np.random.Generator,
                 multilabel_prob: float = 0.0):
    """A random chart and annotation: ``(chart, tree, mask)``."""
    chart = oracle.random_chart(n, schema, rng)
    tree = oracle.random_partial_tree(n, schema, rng, multilabel_prob)
    return chart, tree, build_mask(tree, schema)


def _same_tree(chart, decoded, best) -> bool:
    """Same nodes and the same score, bit for bit."""
    return decoded.nodes == best.nodes and tree_score(chart, decoded) == tree_score(
        chart, best
    )


def run_selfcheck(max_n: int, cases: int, seed: int) -> list[_CheckResult]:
    """Certify the chart DP against the enumeration oracles."""
    flags = {"--max-n": (max_n, 1), "--cases": (cases, 1), "--seed": (seed, 0)}
    for flag, (value, low) in flags.items():
        integer(value, flag, low)
    if max_n > oracle.MAX_ORACLE_N:
        raise TooLarge(
            f"--max-n {max_n} exceeds the oracle guard ({oracle.MAX_ORACLE_N})"
        )
    rng = np.random.default_rng(seed)

    partition = _CheckResult("inside equals enumerated log-partition")
    three_way = _CheckResult("masked = vanilla = enumerated partial score")
    marginal = _CheckResult("marginal identities and enumerated posteriors")
    decode = _CheckResult("decoder equals enumerated best tree")
    full_eval = _CheckResult("full-tree mask recovers tree evaluation")
    batched = _CheckResult("batched loss and gradient equal enumerated ones")
    batched_decode = _CheckResult("batched decoder equals enumerated best tree")
    # (chart, mask, enumerated loss, enumerated gradient, enumerated best
    # tree) of every case
    sentences = []

    for case in range(cases):
        n = case % max_n + 1
        schema = _case_schema(rng)
        chart, tree, mask = _random_case(n, schema, rng, multilabel_prob=0.1)

        log_z = oracle.brute_force_log_z(chart)
        partition.add(abs(inside(chart) - log_z), 1e-8)

        mi = masked_inside(chart, mask)
        vp = vanilla_partial_marginalization(chart, tree)
        bf = oracle.brute_force_partial_score(chart, tree)
        three_way.add([abs(mi - vp), abs(mi - bf)], 1e-6)

        mu = marginals(chart)
        node_count = abs(mu.sum() - (2 * n - 1))
        leaf_root = np.max(
            [abs(mu[i, i, :].sum() - 1.0) for i in range(n)]
            + [abs(mu[0, n - 1, :].sum() - 1.0)]
        )
        oracle_mu = oracle.brute_force_marginals(chart)
        oracle_mu_masked = oracle.brute_force_marginals(chart, tree)
        vs_oracle = np.abs(mu - oracle_mu).max()
        vs_oracle_masked = np.abs(marginals(chart, mask) - oracle_mu_masked).max()
        marginal.add(
            [node_count, leaf_root, vs_oracle, vs_oracle_masked],
            [1e-6, 1e-9, 1e-6, 1e-6],
            ok=bool((mu >= 0.0).all() and (mu <= 1.0).all()),
        )

        best = oracle.brute_force_best_tree(chart)
        decode.add(ok=_same_tree(chart, cky_decode(chart), best))
        want_grad = pack_cells(oracle_mu - oracle_mu_masked)
        sentences.append((chart, mask, log_z - bf, want_grad, best))

        target = oracle.random_chart(n, schema, rng)
        probe = cky_decode(target)
        evaluated = masked_inside(chart, inference.mask_from_full_tree(probe, schema))
        full_eval.add(abs(evaluated - tree_score(chart, probe)), 1e-6)

    # The cases again, as shuffled batches of 1 to 8 sentences of mixed
    # lengths; a batch shares one label count.
    by_labels: dict[int, list] = {}
    for sentence in sentences:
        by_labels.setdefault(sentence[0].schema.n_labels, []).append(sentence)
    for group in by_labels.values():
        order = list(rng.permutation(len(group)))
        while order:
            size = int(rng.integers(1, 9))
            batch, order = order[:size], order[size:]
            charts, masks, losses, grads, bests = zip(*(group[k] for k in batch))
            results = batch_loss_and_score_gradient(charts, masks)
            for (loss, grad), want_loss, want_grad in zip(results, losses, grads):
                errors = [abs(loss - want_loss), np.abs(grad - want_grad).max()]
                batched.add(errors, 1e-6)
            for chart, decoded, best in zip(charts, batch_cky_decode(charts), bests):
                batched_decode.add(ok=_same_tree(chart, decoded, best))
    return [partition, three_way, marginal, decode, full_eval, batched, batched_decode]


def cmd_selfcheck(args: argparse.Namespace) -> int:
    results = run_selfcheck(args.max_n, args.cases, args.seed)
    for result in results:
        print(result.line())
    return 0 if all(r.failures == 0 for r in results) else 1


def cmd_bench(args: argparse.Namespace) -> int:
    lows = {"batch": 1, "length": 1, "labels": 2, "repeats": 1, "seed": 0}
    for flag, low in lows.items():
        integer(getattr(args, flag), f"--{flag}", low)
    rng = np.random.default_rng(args.seed)
    schema = LabelSchema(
        observed_labels=tuple(f"L{i}" for i in range(args.labels - 1)),
        latent_label_count=1,
    )
    charts, trees, masks = zip(
        *(_random_case(args.length, schema, rng) for _ in range(args.batch))
    )

    print(
        "batch_size,sentence_length,label_count,vanilla_time,"
        "masked_batched_time,speedup_ratio,max_value_discrepancy"
    )
    ratios, gate = [], _CheckResult("the two paths agree")
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        vanilla_values = [
            vanilla_partial_marginalization(chart, tree)
            for chart, tree in zip(charts, trees)
        ]
        t_vanilla = time.perf_counter() - t0
        t0 = time.perf_counter()
        batched_values = batched_masked_inside(charts, masks)
        t_batched = time.perf_counter() - t0
        ratios.append(t_vanilla / t_batched)
        discrepancy = np.abs(np.array(vanilla_values) - batched_values).max()
        gate.add(discrepancy, 1e-6)
        print(
            f"{args.batch},{args.length},{args.labels},{t_vanilla:.6f},"
            f"{t_batched:.6f},{ratios[-1]:.3f},{discrepancy:.3e}"
        )
    print(
        f"summary: median speedup {np.median(ratios):.2f}x over "
        f"{args.repeats} repeats, max value discrepancy {gate.worst:.3e}",
        file=sys.stderr,
    )
    if gate.failures:
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
    # every count's config is checked before the read
    configs = [_train_config(args, latent_label_count=count) for count in counts]
    records = read_corpus(args.data)
    print(
        "# context: on real nested-entity corpora, adding latent labels tends to\n"
        "# raise recall and lower precision; the trend is dataset-dependent and\n"
        "# is reported here for inspection, not asserted."
    )
    print("latent_labels,dev_precision,dev_recall,dev_f1")
    for count, config in zip(counts, configs):
        report = train(records, config).dev_report
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
    d = SynthConfig(num_sentences=1)
    p.add_argument("--sentences", type=int, default=2000)
    p.add_argument("--types", type=int, default=d.num_entity_types)
    p.add_argument("--depth", type=int, default=d.max_nesting_depth)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--vocab", type=int, default=d.vocab_size)
    p.add_argument("--max-length", type=int, default=d.max_length)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on a corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--log", default=None, help="training log path (CSV)")
    p.add_argument("--latent", type=int, default=TrainConfig().latent_label_count,
                   help="latent label count")
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
    except (TreecrfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
