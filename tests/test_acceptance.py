"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The training criteria
use the standard synthetic corpus (2000 sentences, 3 entity types, nesting
depth 3, seed 0) and take a few minutes in total.
"""

import sys
import time

import numpy as np
import pytest

from treecrf import (
    LabelSchema,
    ScoreChart,
    SynthConfig,
    TrainConfig,
    batched_masked_inside,
    build_mask,
    cky_decode,
    classify_nodes,
    gen_synthetic,
    inside,
    loss_and_score_gradient,
    marginals,
    masked_inside,
    smooth_mask,
    train,
    tree_score,
    vanilla_partial_marginalization,
)
from treecrf.cli import main
from treecrf.oracle import (
    brute_force_best_tree,
    brute_force_log_z,
    brute_force_partial_score,
    random_chart,
    random_partial_tree,
)
from treecrf.scorer import ScorerConfig, Vocab, forward_batch, init_params


def report(number: int, ok: bool, detail: str) -> None:
    # written to the real stdout so the line shows even under capture
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}", file=sys.__stdout__)


def rel_ok(analytic: float, fd: float, tol: float = 1e-4) -> bool:
    return abs(analytic - fd) <= tol * max(abs(analytic), abs(fd), 1e-3)


@pytest.fixture(scope="module")
def standard_corpus():
    return gen_synthetic(
        SynthConfig(
            num_sentences=2000, num_entity_types=3, max_nesting_depth=3, seed=0
        )
    )


def test_criterion_01_partition_function_oracle():
    """inside equals the enumerated log-partition to 1e-8, in under 60 s."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        for n_labels in (2, 3, 4):
            schema = LabelSchema(
                tuple(f"L{i}" for i in range(n_labels - 1)), latent_label_count=1
            )
            for _ in range(200):
                chart = random_chart(n, schema, rng)
                # np.maximum keeps a NaN, which fails the bound
                worst = np.maximum(worst, abs(inside(chart) - brute_force_log_z(chart)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    report(1, ok, f"3600 charts, worst |error| {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_02_three_way_partial_score_agreement():
    """masked inside = vanilla = enumerated partial score within 1e-6."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for case in range(200):
        n = case % 6 + 1
        n_labels = int(rng.integers(2, 5))
        n_observed = int(rng.integers(1, n_labels))
        schema = LabelSchema(
            tuple(f"L{i}" for i in range(n_observed)),
            latent_label_count=n_labels - n_observed,
        )
        chart = random_chart(n, schema, rng)
        ptree = random_partial_tree(n, schema, rng, multilabel_prob=0.1)
        symbols = classify_nodes(ptree)
        mask = build_mask(symbols, schema)
        mi = masked_inside(chart, mask)
        vp = vanilla_partial_marginalization(chart, symbols)
        bf = brute_force_partial_score(chart, symbols)
        worst = np.max([worst, abs(mi - vp), abs(mi - bf)])
    ok = worst <= 1e-6
    report(2, ok, f"200 annotated charts, worst |error| {worst:.3e}")
    assert worst <= 1e-6


def test_criterion_03_gradient_exactness():
    """Analytic gradients match central finite differences to 1e-4 relative."""
    schema = LabelSchema(("A", "B"), latent_label_count=1)
    vocab = Vocab.build(f"t{i}" for i in range(10))
    config = ScorerConfig(embed_dim=4, hidden_dim=8, schema=schema)
    rng = np.random.default_rng(103)
    h = 1e-5
    worst_rel = 0.0
    checked = 0
    for model in range(20):
        n = model % 4 + 2  # sentence lengths 2..5
        tokens = [f"t{int(rng.integers(0, 10))}" for _ in range(n)]
        params = init_params(vocab, config, seed=model)
        for arr in params.arrays().values():
            arr += rng.uniform(-0.05, 0.05, size=arr.shape)
        ptree = random_partial_tree(n, schema, rng)
        symbols = classify_nodes(ptree)
        mask = smooth_mask(build_mask(symbols, schema), symbols, 0.01)

        (normed,), tape = forward_batch([params.vocab.encode(tokens)], params)
        _, score_grad = loss_and_score_gradient(normed, mask)

        # gradients w.r.t. every potential s_ijk; the gradient is packed,
        # its span cells in the row-major order of np.triu_indices(n)
        for cell, (i, j) in enumerate(zip(*np.triu_indices(n))):
            for k in range(schema.n_labels):
                sp = normed.cells.copy()
                sp[cell, k] += h
                up = loss_and_score_gradient(ScoreChart(sp, schema), mask)[0]
                sp = normed.cells.copy()
                sp[cell, k] -= h
                dn = loss_and_score_gradient(ScoreChart(sp, schema), mask)[0]
                fd = (up - dn) / (2 * h)
                a = score_grad[cell, k]
                worst_rel = max(worst_rel, abs(a - fd) / max(abs(a), abs(fd), 1e-3))
                checked += 1
                assert rel_ok(a, fd), (model, "score", i, j, k, a, fd)

        # gradients w.r.t. every scorer parameter
        def pipeline_loss() -> float:
            (nm,), _ = forward_batch([params.vocab.encode(tokens)], params)
            return loss_and_score_gradient(nm, mask)[0]

        grads = tape.backward([score_grad])
        for name, arr in params.arrays().items():
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            for ix in range(flat.size):
                orig = flat[ix]
                flat[ix] = orig + h
                up = pipeline_loss()
                flat[ix] = orig - h
                dn = pipeline_loss()
                flat[ix] = orig
                fd = (up - dn) / (2 * h)
                worst_rel = max(
                    worst_rel, abs(gflat[ix] - fd) / max(abs(gflat[ix]), abs(fd), 1e-3)
                )
                checked += 1
                assert rel_ok(gflat[ix], fd), (model, name, ix, gflat[ix], fd)
    report(3, True, f"20 models, {checked} partials, worst rel err {worst_rel:.2e}")


def test_criterion_04_marginal_identities():
    """Node-count and leaf/root sums hold; posteriors stay in [0, 1]."""
    rng = np.random.default_rng(104)
    worst_count = worst_unit = 0.0
    bounds_ok = True
    for case in range(150):
        n = case % 7 + 1
        n_labels = int(rng.integers(2, 5))
        schema = LabelSchema(
            tuple(f"L{i}" for i in range(n_labels - 1)), latent_label_count=1
        )
        chart = random_chart(n, schema, rng)
        mu = marginals(chart)
        worst_count = max(worst_count, abs(mu.sum() - (2 * n - 1)))
        for i in range(n):
            worst_unit = max(worst_unit, abs(mu[i, i, :].sum() - 1.0))
        worst_unit = max(worst_unit, abs(mu[0, n - 1, :].sum() - 1.0))
        bounds_ok = bounds_ok and bool((mu >= 0.0).all() and (mu <= 1.0).all())
    ok = worst_count <= 1e-6 and worst_unit <= 1e-9 and bounds_ok
    report(
        4,
        ok,
        f"150 charts, node-count err {worst_count:.3e}, "
        f"leaf/root err {worst_unit:.3e}, bounds {'ok' if bounds_ok else 'violated'}",
    )
    assert worst_count <= 1e-6
    assert worst_unit <= 1e-9
    assert bounds_ok


def test_criterion_05_decode_optimality():
    """Decoder tree and score equal the enumerated best tree exactly."""
    rng = np.random.default_rng(105)
    for case in range(200):
        n = case % 6 + 1
        n_labels = int(rng.integers(2, 5))
        schema = LabelSchema(
            tuple(f"L{i}" for i in range(n_labels - 1)), latent_label_count=1
        )
        chart = random_chart(n, schema, rng)
        decoded = cky_decode(chart)
        best = brute_force_best_tree(chart)
        assert decoded.nodes == best.nodes, (case, decoded.nodes, best.nodes)
        assert tree_score(chart, decoded) == tree_score(chart, best)
    report(5, True, "200 charts, tree and score identical")


def test_criterion_06_structure_smoothing_monotonicity():
    """masked inside strictly increases along the epsilon ladder."""
    rng = np.random.default_rng(106)
    ladder = (0.0, 0.01, 0.02, 0.1)
    cases = 0
    min_margin = np.inf
    while cases < 50:
        n = int(rng.integers(3, 7))
        schema = LabelSchema(("A", "B"), latent_label_count=1)
        chart = random_chart(n, schema, rng)
        ptree = random_partial_tree(n, schema, rng)
        symbols = classify_nodes(ptree)
        iu = np.triu_indices(n)
        if not (symbols.node_kind[iu] == 2).any():
            continue  # need at least one rejected cell
        cases += 1
        base = build_mask(symbols, schema)
        values = [
            masked_inside(chart, smooth_mask(base, symbols, eps)) for eps in ladder
        ]
        for lo, hi in zip(values, values[1:]):
            min_margin = min(min_margin, hi - lo)
            assert hi - lo > 1e-9, (values, ladder)
    report(6, True, f"50 charts with rejected cells, min increase {min_margin:.3e}")


def test_criterion_07_end_to_end_learning(standard_corpus):
    """Default training reaches dev F1 >= 0.95 within 20 epochs, < 10 min."""
    start = time.perf_counter()
    result = train(standard_corpus, TrainConfig())  # defaults: 20 epochs, seed 0
    elapsed = time.perf_counter() - start
    best_f1 = max(row.dev_f1 for row in result.log)
    losses = [row.mean_loss for row in result.log[:3]]
    ok = best_f1 >= 0.95 and elapsed < 600.0
    report(
        7,
        ok,
        f"dev F1 {best_f1:.4f} (best epoch {result.best_epoch}), "
        f"{elapsed:.0f}s for 20 epochs",
    )
    assert best_f1 >= 0.95
    assert elapsed < 600.0
    assert losses[0] >= losses[1] >= losses[2]


def test_criterion_08_seed_stability(standard_corpus):
    """Dev F1 range across seeds 0..4 stays within 0.03."""
    scores = []
    for seed in range(5):
        result = train(standard_corpus, TrainConfig(epochs=10, seed=seed))
        scores.append(max(row.dev_f1 for row in result.log))
    spread = max(scores) - min(scores)
    ok = spread <= 0.03
    report(
        8,
        ok,
        "dev F1 by seed " + ", ".join(f"{s:.4f}" for s in scores) + f"; range {spread:.4f}",
    )
    assert spread <= 0.03


def test_criterion_09_benchmark_validity_and_speed():
    """Batched masked inside matches vanilla values and is not slower."""
    rng = np.random.default_rng(109)
    schema = LabelSchema(tuple(f"L{i}" for i in range(7)), latent_label_count=1)
    length, batch = 40, 32
    charts, symbol_trees, masks = [], [], []
    for _ in range(batch):
        charts.append(random_chart(length, schema, rng))
        ptree = random_partial_tree(length, schema, rng)
        symbols = classify_nodes(ptree)
        symbol_trees.append(symbols)
        masks.append(build_mask(symbols, schema))
    t_vanilla = np.inf
    t_batched = np.inf
    for _ in range(2):
        t0 = time.perf_counter()
        vanilla_values = [
            vanilla_partial_marginalization(c, s)
            for c, s in zip(charts, symbol_trees)
        ]
        t_vanilla = min(t_vanilla, time.perf_counter() - t0)
        t0 = time.perf_counter()
        batched_values = batched_masked_inside(charts, masks)
        t_batched = min(t_batched, time.perf_counter() - t0)
    discrepancy = float(np.abs(np.array(vanilla_values) - batched_values).max())
    speedup = t_vanilla / t_batched
    ok = discrepancy <= 1e-6 and speedup >= 1.0
    report(
        9,
        ok,
        f"batch {batch}, n {length}, labels 8: "
        f"discrepancy {discrepancy:.3e}, speedup {speedup:.1f}x "
        f"(vanilla {t_vanilla:.3f}s, batched {t_batched:.3f}s)",
    )
    assert discrepancy <= 1e-6
    assert speedup >= 1.0


def test_criterion_10_latent_label_sweep(tmp_path, capsys):
    """sweep-latent over counts 1..4 emits a well-formed table."""
    corpus_path = str(tmp_path / "sweep.jsonl")
    assert main(["gen", "--out", corpus_path, "--sentences", "250", "--seed", "0"]) == 0
    capsys.readouterr()  # drain the gen command's status line
    rc = main(
        [
            "sweep-latent",
            "--data",
            corpus_path,
            "--counts",
            "1,2,3,4",
            "--epochs",
            "2",
            "--seed",
            "0",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
    header, rows = lines[0], lines[1:]
    ok = (
        header == "latent_labels,dev_precision,dev_recall,dev_f1"
        and len(rows) == 4
    )
    for expected_count, row in zip((1, 2, 3, 4), rows):
        fields = row.split(",")
        ok = ok and int(fields[0]) == expected_count
        ok = ok and all(0.0 <= float(x) <= 1.0 for x in fields[1:])
    report(10, ok, "4 rows emitted for counts 1..4")
    assert ok
