import time

import numpy as np
import pytest

from marginsel.theory import (
    AttentionParams,
    NotSeparable,
    PromptTensors,
    ShapeMismatch,
    TooLarge,
    analytic_1d_errors,
    decompose,
    delta_w_icl,
    embed_margin_problem,
    kkt_report,
    linear_attention,
    random_instance,
    random_separable_problem,
    run_theory_checks,
    softmax_attention,
    solve_hard_margin,
    support_vector_split,
    zero_shot_weight,
)


def tensors_of(query, test=None, demo_in=None, demo_lab=None):
    d = len(query)
    empty = np.zeros((0, d))
    return PromptTensors(
        query=np.asarray(query, dtype=float),
        test_tokens=np.asarray(test, dtype=float) if test is not None else empty,
        demo_inputs=np.asarray(demo_in, dtype=float) if demo_in is not None else empty,
        demo_labels=np.asarray(demo_lab, dtype=float) if demo_lab is not None else empty,
    )


# --------------------------------------------------------------------------
# Attention forms
# --------------------------------------------------------------------------


def test_softmax_single_row_returns_that_value():
    params = AttentionParams.identity(3)
    t = tensors_of([5.0, -2.0, 1.0], test=[[0.3, 0.7, -0.1]])
    out = softmax_attention(params, t)
    assert np.allclose(out, [0.3, 0.7, -0.1])


def test_softmax_two_identical_keys_average_values():
    d = 2
    w_k = np.zeros((d, d))  # all scores equal -> uniform weights
    params = AttentionParams(np.eye(d), w_k, np.eye(d))
    t = tensors_of([1.0, 0.0], test=[[2.0, 0.0], [0.0, 4.0]])
    out = softmax_attention(params, t)
    assert np.allclose(out, [1.0, 2.0])


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        params, tensors = random_instance(rng)
        if tensors.sequence().shape[0] == 0:
            continue
        base = softmax_attention(params, tensors)
        # shift all scores by a constant via a rank-1 key perturbation along
        # the query direction is messy; instead verify via direct recompute
        # with manually shifted scores.
        seq = tensors.sequence()
        scores = seq @ params.w_k.T @ (params.w_q @ tensors.query) / np.sqrt(params.d)
        for shift in (7.3, -123.0):
            shifted = scores + shift
            shifted = shifted - shifted.max()
            probs = np.exp(shifted)
            probs /= probs.sum()
            out = params.w_v @ seq.T @ probs
            assert np.max(np.abs(out - base)) < 1e-12


def test_softmax_requires_rows():
    params = AttentionParams.identity(2)
    with pytest.raises(ShapeMismatch):
        softmax_attention(params, tensors_of([1.0, 0.0]))


def test_linear_attention_single_term_expansion():
    params = AttentionParams.identity(2)
    x = [0.5, -1.5]
    q = [2.0, 1.0]
    t = tensors_of(q, test=[x])
    out = linear_attention(params, t)
    want = np.array(x) * (np.dot(x, q))
    assert np.allclose(out, want)


def test_linear_attention_zero_query():
    rng = np.random.default_rng(1)
    params, tensors = random_instance(rng)
    zeroed = PromptTensors(
        query=np.zeros_like(tensors.query),
        test_tokens=tensors.test_tokens,
        demo_inputs=tensors.demo_inputs,
        demo_labels=tensors.demo_labels,
    )
    assert np.allclose(linear_attention(params, zeroed), 0.0)


def test_shape_mismatch_detected():
    params = AttentionParams.identity(3)
    with pytest.raises(ShapeMismatch):
        linear_attention(params, tensors_of([1.0, 2.0]))
    with pytest.raises(ShapeMismatch):
        PromptTensors(
            query=np.zeros(2),
            test_tokens=np.zeros((1, 3)),
            demo_inputs=np.zeros((0, 2)),
            demo_labels=np.zeros((0, 2)),
        )


# --------------------------------------------------------------------------
# Decomposition and the additive update
# --------------------------------------------------------------------------


def test_decomposition_sums_to_linear_attention():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        params, tensors = random_instance(rng)
        linear = linear_attention(params, tensors)
        total = sum(decompose(params, tensors))
        worst = max(worst, float(np.max(np.abs(total - linear))))
    assert worst < 1e-10


def test_decompose_no_demos_gives_zero_demo_terms():
    params = AttentionParams.identity(2)
    t = tensors_of([1.0, 1.0], test=[[1.0, 0.0]])
    _, demo_in, demo_lab = decompose(params, t)
    assert np.all(demo_in == 0.0) and np.all(demo_lab == 0.0)


def test_decompose_equal_demo_blocks_give_equal_terms():
    rng = np.random.default_rng(3)
    block = rng.uniform(-1, 1, (4, 3))
    params = AttentionParams(*(rng.uniform(-1, 1, (5, 3)) for _ in range(3)))
    t = PromptTensors(
        query=rng.uniform(-1, 1, 3),
        test_tokens=rng.uniform(-1, 1, (2, 3)),
        demo_inputs=block,
        demo_labels=block.copy(),
    )
    _, demo_in, demo_lab = decompose(params, t)
    assert np.allclose(demo_in, demo_lab)


def test_affine_update_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        params, tensors = random_instance(rng)
        if tensors.n_demos == 0:
            continue
        combined = (zero_shot_weight(params, tensors) + delta_w_icl(params, tensors)) @ tensors.query
        linear = linear_attention(params, tensors)
        worst = max(worst, float(np.max(np.abs(combined - linear))))
    assert worst < 1e-10


def test_simplified_delta_w_single_demo_rank_one():
    x = np.array([[1.0, 2.0, 0.0]])
    y = np.array([[0.0, 0.0, 3.0]])
    t = PromptTensors(
        query=np.zeros(3), test_tokens=np.zeros((0, 3)), demo_inputs=x, demo_labels=y
    )
    dw = delta_w_icl(AttentionParams.identity(3), t, simplified=True)
    assert dw.shape == (3, 3)
    assert np.allclose(dw, np.outer(y[0], x[0]))
    assert np.linalg.matrix_rank(dw) == 1


def test_delta_w_additive_over_demos():
    rng = np.random.default_rng(11)
    for simplified in (False, True):
        params, _ = random_instance(rng, square=True)
        d = params.d
        query = rng.uniform(-1, 1, d)
        test = rng.uniform(-1, 1, (2, d))
        xa, ya = rng.uniform(-1, 1, (3, d)), rng.uniform(-1, 1, (3, d))
        xb, yb = rng.uniform(-1, 1, (2, d)), rng.uniform(-1, 1, (2, d))
        make = lambda xs, ys: PromptTensors(query, test, xs, ys)
        joint = delta_w_icl(params, make(np.vstack([xa, xb]), np.vstack([ya, yb])), simplified)
        split = delta_w_icl(params, make(xa, ya), simplified) + delta_w_icl(
            params, make(xb, yb), simplified
        )
        assert np.allclose(joint, split, atol=1e-12)


def test_delta_w_requires_demos():
    params = AttentionParams.identity(2)
    with pytest.raises(ShapeMismatch):
        delta_w_icl(params, tensors_of([1.0, 0.0], test=[[1.0, 0.0]]))


# --------------------------------------------------------------------------
# Hard-margin solver
# --------------------------------------------------------------------------


def test_analytic_one_dimensional_case_exact():
    errors = analytic_1d_errors()
    assert all(err < 1e-12 for err in errors.values()), errors


def test_symmetric_pair():
    problem = solve_hard_margin(
        np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([-1.0, 1.0])
    )
    assert np.allclose(problem.weights, [1.0, 0.0])
    assert abs(problem.bias) < 1e-12
    assert problem.geometric_margin == pytest.approx(1.0)


def test_duplicated_far_point_is_not_support():
    points = np.array([[1.0], [-2.0], [3.0], [6.0]])
    labels = np.array([-1.0, -1.0, 1.0, 1.0])
    base = solve_hard_margin(points, labels)
    extended = solve_hard_margin(
        np.vstack([points, [[6.0]], [[6.0]]]), np.concatenate([labels, [1.0, 1.0]])
    )
    assert np.allclose(extended.weights, base.weights)
    assert extended.bias == pytest.approx(base.bias)
    assert extended.geometric_margin == pytest.approx(base.geometric_margin)
    assert np.all(extended.beta[-2:] == 0.0)


def test_not_separable_and_too_large():
    with pytest.raises(NotSeparable):
        solve_hard_margin(
            np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([1.0, -1.0, 1.0, -1.0])
        )
    with pytest.raises(NotSeparable):
        solve_hard_margin(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    with pytest.raises(TooLarge):
        solve_hard_margin(np.zeros((65, 1)), np.ones(65))


def test_active_set_count_is_bounded_before_enumerating():
    # 64 points in 16 dimensions would mean about 10^15 candidate active sets.
    rng = np.random.default_rng(0)
    points = rng.normal(size=(64, 16))
    labels = np.where(points[:, 0] > 0, 1.0, -1.0)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="active sets"):
        solve_hard_margin(points, labels)
    assert time.perf_counter() - start < 0.5
    # The largest instances the theory checks draw (12 points, 3-d) still solve.
    points = rng.uniform(-2.0, 2.0, size=(12, 3))
    labels = np.where(points @ np.array([1.0, -0.5, 0.25]) > 0, 1.0, -1.0)
    problem = solve_hard_margin(points, labels)
    assert max(kkt_report(problem).values()) < 1e-8


def test_kkt_conditions_on_random_separable_instances():
    rng = np.random.default_rng(123)
    for _ in range(40):
        points, labels = random_separable_problem(rng)
        problem = solve_hard_margin(points, labels)
        report = kkt_report(problem)
        for name, value in report.items():
            assert value < 1e-8, (name, value)
        assert problem.functional_margin == pytest.approx(1.0, abs=1e-8)
        # beta is positive only where the margin constraint is active
        margins = problem.labels * (problem.points @ problem.weights + problem.bias)
        for b, m in zip(problem.beta, margins):
            if b > 1e-10:
                assert m == pytest.approx(1.0, abs=1e-8)


# --------------------------------------------------------------------------
# Support-restricted recombination
# --------------------------------------------------------------------------


def test_zero_beta_removes_weighted_term():
    rng = np.random.default_rng(5)
    points, labels = random_separable_problem(rng)
    problem = solve_hard_margin(points, labels)
    params, tensors = embed_margin_problem(problem, rng)
    out = support_vector_split(params, tensors, np.zeros(tensors.n_demos))
    term_test, _, term_labels = decompose(params, tensors)
    assert np.allclose(out, term_test + term_labels, atol=1e-12)


def test_beta_ones_matches_simplified_update_form():
    rng = np.random.default_rng(6)
    points, labels = random_separable_problem(rng)
    problem = solve_hard_margin(points, labels)
    params, tensors = embed_margin_problem(problem, rng)
    out = support_vector_split(params, tensors, np.ones(tensors.n_demos))
    term_test, _, term_labels = decompose(params, tensors)
    want = term_test + term_labels + delta_w_icl(params, tensors, simplified=True) @ tensors.query
    assert np.allclose(out, want, atol=1e-12)


def test_dropping_zero_beta_demos_is_exact():
    rng = np.random.default_rng(9)
    for _ in range(25):
        points, labels = random_separable_problem(rng)
        problem = solve_hard_margin(points, labels)
        params, tensors = embed_margin_problem(problem, rng)
        full = support_vector_split(params, tensors, problem.beta)
        keep = problem.beta > 0
        reduced = PromptTensors(
            query=tensors.query,
            test_tokens=tensors.test_tokens,
            demo_inputs=tensors.demo_inputs[keep],
            demo_labels=tensors.demo_labels[keep],
        )
        restricted = support_vector_split(params, reduced, problem.beta[keep])
        assert np.max(np.abs(full - restricted)) < 1e-12


def test_support_split_requires_square_projections():
    rng = np.random.default_rng(2)
    params = AttentionParams(*(rng.uniform(-1, 1, (4, 3)) for _ in range(3)))
    t = PromptTensors(
        query=np.zeros(3),
        test_tokens=np.zeros((1, 3)),
        demo_inputs=np.zeros((2, 3)),
        demo_labels=np.zeros((2, 3)),
    )
    with pytest.raises(ShapeMismatch):
        support_vector_split(params, t, np.zeros(2))
    with pytest.raises(ShapeMismatch):
        support_vector_split(AttentionParams.identity(3), t, np.zeros(5))


def test_full_report_shape():
    report = run_theory_checks(seed=1, identity_instances=30, margin_instances=5)
    assert report["decomposition"]["max_abs_error"] < 1e-10
    assert report["affine_update"]["max_abs_error"] < 1e-10
    assert report["support_restriction"]["max_abs_change"] < 1e-12
    assert 0.0 <= report["softmax_vs_linear_alignment"]["agreement_rate"] <= 1.0
