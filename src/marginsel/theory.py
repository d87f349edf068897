"""Desk-scale numerical checks of the attention-as-affine-update view of
in-context learning.

The objects here are small dense matrices: a prompt is modeled as demo-input
rows, demo-label rows and test-token rows sharing one hidden width, plus a
query vector.  The module provides softmax attention over that sequence, its
linearized form (softmax and scaling dropped), the exact three-way
decomposition of the linear form into test / demo-input / demo-label
contributions, the equivalent per-demo additive weight update, a hard-margin
separator whose support one dual QP solve identifies and one KKT system
certifies, and the support-restricted recombination in which only demos with
nonzero dual coefficients contribute.

Everything is float64 and deterministic; identity checks hold to 1e-10 on
random instances with dimensions up to 16 and row counts up to 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .core import MarginSelError


class ShapeMismatch(MarginSelError):
    pass


class NotSeparable(MarginSelError):
    pass


@dataclass(frozen=True)
class AttentionParams:
    """Value/key/query projections, each (d_out, d)."""

    w_v: np.ndarray
    w_k: np.ndarray
    w_q: np.ndarray

    def __post_init__(self):
        shapes = {m.shape for m in (self.w_v, self.w_k, self.w_q)}
        if len(shapes) != 1 or any(m.ndim != 2 for m in (self.w_v, self.w_k, self.w_q)):
            raise ShapeMismatch(f"projection shapes differ: {shapes}")
        if not all(np.all(np.isfinite(m)) for m in (self.w_v, self.w_k, self.w_q)):
            raise ShapeMismatch("projections must be finite")

    @property
    def d_out(self) -> int:
        return self.w_v.shape[0]

    @property
    def d(self) -> int:
        return self.w_v.shape[1]

    @classmethod
    def identity(cls, d: int) -> "AttentionParams":
        eye = np.eye(d)
        return cls(eye, eye, eye)


@dataclass(frozen=True)
class PromptTensors:
    """Vector stand-ins for one prompt: the query (d,), test tokens (M, d),
    demo inputs (N, d) and demo labels (N, d)."""

    query: np.ndarray
    test_tokens: np.ndarray
    demo_inputs: np.ndarray
    demo_labels: np.ndarray

    def __post_init__(self):
        q = self.query
        if q.ndim != 1:
            raise ShapeMismatch("query must be a vector")
        d = q.shape[0]
        for name in ("test_tokens", "demo_inputs", "demo_labels"):
            m = getattr(self, name)
            if m.ndim != 2 or m.shape[1] != d:
                raise ShapeMismatch(f"{name} must be (rows, {d}), got {m.shape}")
        if self.demo_inputs.shape[0] != self.demo_labels.shape[0]:
            raise ShapeMismatch("demo inputs and labels must pair up")

    @property
    def n_demos(self) -> int:
        return self.demo_inputs.shape[0]

    def sequence(self) -> np.ndarray:
        """Key/value rows in prompt order: demo inputs, demo labels, test."""
        return np.vstack([self.demo_inputs, self.demo_labels, self.test_tokens])


def _check(params: AttentionParams, tensors: PromptTensors) -> None:
    if params.d != tensors.query.shape[0]:
        raise ShapeMismatch(
            f"projections act on width {params.d}, tensors have {tensors.query.shape[0]}"
        )


def softmax_attention(params: AttentionParams, tensors: PromptTensors) -> np.ndarray:
    """Context vector for the query under standard scaled softmax attention
    over the full prompt sequence.  Softmax is computed with max subtraction
    so constant score shifts cancel exactly."""
    _check(params, tensors)
    seq = tensors.sequence()
    if seq.shape[0] == 0:
        raise ShapeMismatch("attention needs at least one key/value row")
    scores = seq @ params.w_k.T @ (params.w_q @ tensors.query) / np.sqrt(params.d)
    scores = scores - scores.max()
    probs = np.exp(scores)
    probs /= probs.sum()
    return params.w_v @ seq.T @ probs


def linear_attention(params: AttentionParams, tensors: PromptTensors) -> np.ndarray:
    """Same contraction with softmax and the 1/sqrt(d) scale removed; this is
    the form that splits additively over the sequence rows."""
    _check(params, tensors)
    seq = tensors.sequence()
    scores = seq @ params.w_k.T @ (params.w_q @ tensors.query)
    return params.w_v @ seq.T @ scores


def _block_term(params: AttentionParams, block: np.ndarray, query: np.ndarray) -> np.ndarray:
    if block.shape[0] == 0:
        return np.zeros(params.d_out)
    scores = block @ params.w_k.T @ (params.w_q @ query)
    return params.w_v @ block.T @ scores


def decompose(
    params: AttentionParams, tensors: PromptTensors
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the linear form into its three additive contributions: from the
    test tokens, from the demo inputs, and from the demo labels.  The three
    sum to linear_attention exactly (checked to 1e-10 in tests)."""
    _check(params, tensors)
    return (
        _block_term(params, tensors.test_tokens, tensors.query),
        _block_term(params, tensors.demo_inputs, tensors.query),
        _block_term(params, tensors.demo_labels, tensors.query),
    )


def zero_shot_weight(params: AttentionParams, tensors: PromptTensors) -> np.ndarray:
    """Effective (d_out, d) map contributed by the test tokens alone; applying
    it to the query gives the first decomposition term."""
    x = tensors.test_tokens
    return params.w_v @ x.T @ x @ params.w_k.T @ params.w_q


def delta_w_icl(
    params: AttentionParams, tensors: PromptTensors, simplified: bool = False
) -> np.ndarray:
    """Cumulative weight update contributed by the demonstrations.

    Full mode keeps the projections: the sum over demos of the projected
    outer products of each (input row, label row) pair, i.e. a (d_out, d)
    matrix U with (zero_shot_weight + U) @ query == linear_attention exactly.
    Simplified mode drops the projections and returns sum_k label_k input_k^T
    (a (d, d) matrix), the reduced form that treats each demo as a rank-1
    label-onto-input update; it matches the full demo contribution only under
    identity projections and the label-term split used by
    support_vector_split.
    """
    _check(params, tensors)
    if tensors.n_demos < 1:
        raise ShapeMismatch("need at least one demonstration")
    if simplified:
        return tensors.demo_labels.T @ tensors.demo_inputs
    xp, yp = tensors.demo_inputs, tensors.demo_labels
    return params.w_v @ (xp.T @ xp + yp.T @ yp) @ params.w_k.T @ params.w_q


@dataclass(frozen=True)
class MarginProblem:
    """A solved hard-margin separation: max-margin weights and bias with the
    functional margin normalized to 1 at the support vectors, plus the dual
    coefficients recovering weights = sum_k beta_k y_k x_k."""

    points: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,), each +1 or -1
    weights: np.ndarray  # (d,)
    bias: float
    beta: np.ndarray  # (n,), >= 0, nonzero only on active constraints
    functional_margin: float  # min_i y_i (w.x_i + b); 1 by normalization
    geometric_margin: float  # functional_margin / ||w||


_FEAS_TOL = 1e-9


def solve_hard_margin(points: np.ndarray, labels: np.ndarray) -> MarginProblem:
    """Maximum-margin linear separator: identify the support, then certify it.

    SLSQP solves the dual QP once: minimize 1/2 beta^T Q beta - sum(beta)
    over beta >= 0 with sum(beta * y) = 0, where Q = (y y^T) * (X X^T).  Its
    support, every beta above 1e-8 of the largest, fixes the KKT equalities
    (margin 1 on the support, dual balance), solved by least squares since
    duplicated support vectors make them singular.  A solution that also has
    beta >= 0 and every margin >= 1 is the unique optimum.

    Raises ShapeMismatch for malformed or non-finite input, and NotSeparable
    when a class is missing or the certificate fails.  Without a separator
    the dual is unbounded (the QP may overflow), so the certificate fails.
    """
    pts = np.asarray(points, dtype=np.float64)
    ys = np.asarray(labels, dtype=np.float64)
    if pts.ndim != 2 or ys.ndim != 1 or pts.shape[0] != ys.shape[0]:
        raise ShapeMismatch("points must be (n, d) with one +-1 label per row")
    if not np.all(np.isfinite(pts)):
        raise ShapeMismatch("points must be finite")
    if not np.all(np.isin(ys, (-1.0, 1.0))):
        raise ShapeMismatch("labels must be +1 or -1")
    if len(set(ys.tolist())) < 2:
        raise NotSeparable("both classes must be present")

    q = (ys[:, None] * ys[None, :]) * (pts @ pts.T)
    with np.errstate(over="ignore", invalid="ignore"):
        dual = minimize(
            lambda b: 0.5 * b @ q @ b - b.sum(),
            np.zeros(len(ys)),
            jac=lambda b: q @ b - 1.0,
            method="SLSQP",
            bounds=[(0.0, None)] * len(ys),
            constraints={"type": "eq", "fun": lambda b: b @ ys, "jac": lambda b: ys},
            # SLSQP adds about one support point per iteration.
            options={"ftol": 1e-12, "maxiter": 100 + 2 * len(ys)},
        )
    support = np.flatnonzero(dual.x > 1e-8 * dual.x.max())
    y_s = ys[support]
    # Unknowns [beta_s, bias]; rows: the support's active constraints, then
    # the dual balance sum(beta * y) = 0.
    kkt = np.block([[q[np.ix_(support, support)], y_s[:, None]], [y_s, 0.0]])
    rhs = np.append(np.ones(len(support)), 0.0)
    sol = np.linalg.lstsq(kkt, rhs)[0]
    beta = np.zeros(len(ys))
    beta[support] = np.clip(sol[:-1], 0.0, None)
    bias = float(sol[-1])
    weights = (beta * ys) @ pts
    margins = ys * (pts @ weights + bias)
    if (
        np.max(np.abs(kkt @ sol - rhs)) > _FEAS_TOL
        or np.any(sol[:-1] < -_FEAS_TOL)
        or np.any(margins < 1.0 - _FEAS_TOL)
    ):
        raise NotSeparable("the dual solution's support fails the KKT certificate")
    functional = float(margins.min())
    return MarginProblem(
        points=pts,
        labels=ys,
        weights=weights,
        bias=bias,
        beta=beta,
        functional_margin=functional,
        geometric_margin=functional / float(np.linalg.norm(weights)),
    )


def kkt_report(problem: MarginProblem) -> dict[str, float]:
    """Worst-case residuals of the five KKT conditions for a solved margin
    problem; all should sit at numerical noise."""
    margins = problem.labels * (problem.points @ problem.weights + problem.bias)
    stationarity = problem.weights - (problem.beta * problem.labels) @ problem.points
    return {
        "primal_feasibility": float(np.max(1.0 - margins)),
        "dual_feasibility": float(np.max(-problem.beta)),
        "stationarity": float(np.max(np.abs(stationarity))),
        "dual_balance": float(abs(np.dot(problem.beta, problem.labels))),
        "complementary_slackness": float(
            np.max(np.abs(problem.beta * (margins - 1.0)))
        ),
    }


def support_vector_split(
    params: AttentionParams, tensors: PromptTensors, beta: np.ndarray
) -> np.ndarray:
    """Recombine the query's context vector with the demo-input contribution
    replaced by its dual-weighted rank-1 form: test term + demo-label term +
    sum_k beta_k label_k (input_k . query).

    Demos with beta = 0 contribute nothing through the weighted sum, so
    restricting the prompt to the nonzero-beta demos leaves the output
    unchanged whenever the dropped label rows carry no weight of their own
    (the orthogonal label-block embedding used by the checks).  Requires
    square projections so the unprojected weighted term is commensurate with
    the projected ones.
    """
    _check(params, tensors)
    if params.d_out != params.d:
        raise ShapeMismatch("support-vector split needs square projections")
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (tensors.n_demos,):
        raise ShapeMismatch(
            f"beta must have one entry per demo, got {beta.shape} for {tensors.n_demos}"
        )
    if np.any(beta < 0):
        raise ShapeMismatch("beta entries must be >= 0")
    term_test = _block_term(params, tensors.test_tokens, tensors.query)
    term_labels = _block_term(params, tensors.demo_labels, tensors.query)
    weighted = (beta * (tensors.demo_inputs @ tensors.query)) @ tensors.demo_labels
    return term_test + term_labels + weighted


# --------------------------------------------------------------------------
# Seeded sweeps backing the theory-check report.
# --------------------------------------------------------------------------


def random_instance(rng: np.random.Generator, square: bool = False) -> tuple[AttentionParams, PromptTensors]:
    d = int(rng.integers(1, 17))
    d_out = d if square else int(rng.integers(1, 17))
    m = int(rng.integers(0, 9))
    n = int(rng.integers(0, 9))
    uniform = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    params = AttentionParams(uniform(d_out, d), uniform(d_out, d), uniform(d_out, d))
    tensors = PromptTensors(uniform(d), uniform(m, d), uniform(n, d), uniform(n, d))
    return params, tensors


def random_separable_problem(
    rng: np.random.Generator, max_dim: int = 3, max_points: int = 12, gap: float = 0.2
) -> tuple[np.ndarray, np.ndarray]:
    """Points labeled by a random hyperplane, resampled until every point
    clears the separating band and both classes appear."""
    d = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(2, max_points + 1))
    normal = rng.normal(size=d)
    normal /= np.linalg.norm(normal)
    offset = rng.uniform(-0.5, 0.5)
    points = np.zeros((n, d))
    labels = np.zeros(n)
    for i in range(n):
        while True:
            x = rng.uniform(-2.0, 2.0, d)
            signed = x @ normal + offset
            if abs(signed) >= gap:
                points[i] = x
                labels[i] = 1.0 if signed > 0 else -1.0
                break
    if len(set(labels.tolist())) < 2:
        flip = int(rng.integers(0, n))
        points[flip] = points[flip] - 2 * (points[flip] @ normal + offset) * normal
        labels[flip] = -labels[flip]
    return points, labels


def embed_margin_problem(
    problem: MarginProblem, rng: np.random.Generator, n_test_rows: int = 2
) -> tuple[AttentionParams, PromptTensors]:
    """Embed a solved margin problem as prompt tensors: inputs occupy the
    leading coordinates, labels a dedicated trailing coordinate (so label
    rows are orthogonal to the query and contribute only through beta)."""
    n, d_pts = problem.points.shape
    d = d_pts + 1
    demo_inputs = np.hstack([problem.points, np.zeros((n, 1))])
    demo_labels = np.zeros((n, d))
    demo_labels[:, d_pts] = problem.labels
    query = np.concatenate([rng.uniform(-1.0, 1.0, d_pts), [0.0]])
    test_tokens = rng.uniform(-1.0, 1.0, (n_test_rows, d))
    return AttentionParams.identity(d), PromptTensors(
        query=query,
        test_tokens=test_tokens,
        demo_inputs=demo_inputs,
        demo_labels=demo_labels,
    )


def run_theory_checks(
    seed: int = 0, identity_instances: int = 1000, margin_instances: int = 100
) -> dict:
    """Full numerical verification sweep; returns the report emitted by the
    theory-check command.  Refuses (ValueError) instance counts that are not
    positive ints; bools are refused."""
    for name, count in (("identity_instances", identity_instances),
                        ("margin_instances", margin_instances)):
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ValueError(f"theory {name} must be an integer >= 1, not {count!r}")
    rng = np.random.default_rng(seed)
    max_decomp = 0.0
    max_affine = 0.0
    for _ in range(identity_instances):
        params, tensors = random_instance(rng)
        linear = linear_attention(params, tensors)
        terms = decompose(params, tensors)
        max_decomp = max(max_decomp, float(np.max(np.abs(sum(terms) - linear))))
        if tensors.n_demos >= 1:
            w0 = zero_shot_weight(params, tensors)
            dw = delta_w_icl(params, tensors)
            max_affine = max(
                max_affine,
                float(np.max(np.abs((w0 + dw) @ tensors.query - linear))),
            )

    kkt_reports = []
    max_support_drift = 0.0
    for _ in range(margin_instances):
        points, labels = random_separable_problem(rng)
        problem = solve_hard_margin(points, labels)
        kkt_reports.append(kkt_report(problem))
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
        max_support_drift = max(
            max_support_drift, float(np.max(np.abs(full - restricted)))
        )

    kkt_worst = {key: max(0.0, *(r[key] for r in kkt_reports)) for key in kkt_reports[0]}
    agreement = _softmax_alignment_rate(rng)

    return {
        "decomposition": {
            "instances": identity_instances,
            "max_abs_error": max_decomp,
        },
        "affine_update": {
            "instances": identity_instances,
            "max_abs_error": max_affine,
        },
        "analytic_1d": analytic_1d_errors(),
        "kkt": {"instances": margin_instances, **kkt_worst},
        "support_restriction": {
            "instances": margin_instances,
            "max_abs_change": max_support_drift,
        },
        # Qualitative only: on well-separated instances both attention forms
        # should point the context vector at the same label direction.  This
        # is reported, never asserted.
        "softmax_vs_linear_alignment": {
            "instances": 50,
            "agreement_rate": agreement,
        },
    }


def analytic_1d_errors() -> dict[str, float]:
    """Deviation of the solver from the closed-form answer on the fixed 1-D
    case with inner points at 1 (negative) and 3 (positive): the separator
    sits at 2, so weights = (1), bias = -2, and the two inner points carry
    dual coefficient 0.5 each while the outer points carry 0."""
    points = np.array([[1.0], [-2.0], [3.0], [6.0]])
    labels = np.array([-1.0, -1.0, 1.0, 1.0])
    problem = solve_hard_margin(points, labels)
    expected_beta = np.array([0.5, 0.0, 0.5, 0.0])
    return {
        "weight_error": float(abs(problem.weights[0] - 1.0)),
        "bias_error": float(abs(problem.bias - (-2.0))),
        "beta_error": float(np.max(np.abs(problem.beta - expected_beta))),
        "geometric_margin_error": float(abs(problem.geometric_margin - 1.0)),
    }


def _softmax_alignment_rate(rng: np.random.Generator, instances: int = 50) -> float:
    # Each demo row packs its input into coordinates 0..3 and a one-hot label
    # marker into coordinates 4..5; the value projection reads the label
    # block while key/query read the input block, so both attention forms
    # route the query toward a label direction through input similarity.
    d = 6
    pick_label = np.diag([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    pick_input = np.diag([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    params = AttentionParams(pick_label, pick_input, pick_input)
    center_a = np.zeros(d)
    center_a[0] = 3.0
    center_b = np.zeros(d)
    center_b[1] = 3.0
    agree = 0
    for _ in range(instances):
        rows = []
        for center, label_coord in ((center_a, 4), (center_b, 5)):
            for _ in range(3):
                row = center + 0.05 * rng.normal(size=d)
                row[4] = row[5] = 0.0
                row[label_coord] = 1.0
                rows.append(row)
        query = center_a + 0.05 * rng.normal(size=d)
        query[4] = query[5] = 0.0
        tensors = PromptTensors(
            query=query,
            test_tokens=np.zeros((0, d)),
            demo_inputs=np.vstack(rows),
            demo_labels=np.zeros((6, d)),
        )
        soft = softmax_attention(params, tensors)
        hard = linear_attention(params, tensors)
        if (soft[4] > soft[5]) == (hard[4] > hard[5]):
            agree += 1
    return agree / instances
