"""Correctness oracles, computed apart from the program.

They read only the generated input files and the run directory the program
wrote, and recompute every expected value from the generator's keyword
table (``gen.py``) and the benchmark's own float64 cosine.  Each check
returns a list of human-readable faults; an empty list means the outputs
are correct.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import math
import random
from collections import defaultdict
from pathlib import Path

import numpy as np

import gen

TOL = 1e-9


def derive_seed(base_seed: int, *parts: str) -> int:
    """The documented per-example seed: the first 8 bytes of blake2b over
    ``base|part|...``, read big-endian."""
    digest = hashlib.blake2b("|".join([str(base_seed), *parts]).encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def weighted_draw(pool: list[str], weights: list[float], k: int, seed: int) -> list[str]:
    """Replay of the documented draw protocol: the whole pool in order when it
    fits in k, else k draws with random.Random(seed), each taking the first
    index whose cumulative weight exceeds rng.random() * sum(weights), then
    removing it."""
    if len(pool) <= k:
        return list(pool)
    pool, weights = list(pool), list(weights)
    rng = random.Random(seed)
    picked = []
    for _ in range(k):
        r = rng.random() * sum(weights)
        chosen = min(bisect.bisect_right(list(itertools.accumulate(weights)), r), len(pool) - 1)
        picked.append(pool.pop(chosen))
        weights.pop(chosen)
    return picked


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Oracle:
    def __init__(self, train_path: Path, test_path: Path, emb_path: Path | None):
        train = _read_jsonl(train_path)
        test = _read_jsonl(test_path)
        self.train_ids = [row["id"] for row in train]
        self.gold = {row["id"]: row["label"] for row in train + test}
        self.keywords = {row["id"]: gen.keyword_labels(row["text"]) for row in train + test}
        self.cset = {i: hit or frozenset({gen.DEFAULT_LABEL}) for i, hit in self.keywords.items()}
        # Pools in training-file order, which is the lookup table's order.
        self.pool: dict[frozenset, list[str]] = defaultdict(list)
        for i in self.train_ids:
            self.pool[self.cset[i]].append(i)
        counts: dict[str, int] = defaultdict(int)
        for row in train:
            counts[row["label"]] += 1
        self.weight = {label: 1.0 / (n / len(train)) for label, n in counts.items()}
        self.row = {i: n for n, i in enumerate(self.train_ids)}
        self.unit = None
        if emb_path is not None:
            vectors = {}
            for record in _read_jsonl(emb_path):
                vec = np.asarray(record["vector"], dtype=np.float64)
                vectors[record["id"]] = vec / np.linalg.norm(vec)
            self.vectors = vectors
            self.unit = np.stack([vectors[i] for i in self.train_ids])

    # -- kNN ---------------------------------------------------------------

    def _check_knn(self, query: str, picked: list[str], k: int, excluded: set[str]) -> list[str]:
        """``picked`` is a valid top-k of the training set by cosine to the
        query: scores do not increase down the list, the k-th is no lower
        than the best unpicked score, and query and excluded ids never
        appear.  Valid whatever the summation order."""
        where = f"knn for {query}"
        if self.unit is None:
            return [f"{where}: kNN picks without embeddings"]
        banned = {i for i in excluded | {query} if i in self.row}
        faults = []
        available = len(self.train_ids) - len(banned)
        if len(picked) != min(k, available):
            faults.append(f"{where}: {len(picked)} picks, expected {min(k, available)}")
        if (excluded | {query}) & set(picked):
            faults.append(f"{where}: picked the query or an excluded id")
        if not all(i in self.row for i in picked):
            return faults + [f"{where}: picked ids outside the training set"]
        scores = self.unit @ self.vectors[query]
        mine = [scores[self.row[i]] for i in picked]
        if any(b > a + TOL for a, b in zip(mine, mine[1:])):
            faults.append(f"{where}: scores increase down the list")
        rest = np.ones(len(self.train_ids), dtype=bool)
        for i in set(picked) | banned:
            rest[self.row[i]] = False
        if mine and rest.any() and mine[-1] < scores[rest].max() - TOL:
            faults.append(f"{where}: an unpicked example scores higher than the last pick")
        return faults

    # -- seeded draws --------------------------------------------------------

    def random_demos(self, stream: str, test_id: str, shots: int, seed: int) -> list[str]:
        """The uniform draw of the random method ("random") or of the random
        fallback ("fallback")."""
        rng = random.Random(derive_seed(seed, stream, test_id))
        return rng.sample(self.train_ids, min(shots, len(self.train_ids)))

    @functools.lru_cache(maxsize=None)
    def hard_demos(self, test_id: str, quota: int, seed: int) -> tuple[str, ...]:
        """The 1/rho-weighted draw of ``quota`` hard demos from the test's
        candidate pool.  Cached: every round re-runs the same inputs."""
        pool = self.pool.get(self.cset[test_id], [])
        weights = [self.weight[self.gold[i]] for i in pool]
        return tuple(weighted_draw(pool, weights, quota,
                                   derive_seed(seed, "marginsel", test_id)))

    # -- records -----------------------------------------------------------

    def check_record(self, rec: dict, fallback: str) -> list[str]:
        test_id, shots = rec["id"], rec["shot"]
        ids, sources = rec["demo_ids"], rec["demo_sources"]
        where = f"{rec['method']} shot={shots} seed={rec['seed']} id={test_id}"
        faults = []
        if len(set(ids)) != len(ids) or not all(i in self.row for i in ids):
            faults.append(f"{where}: demos repeat or leave the training set")
        if rec["gold"] != self.gold[test_id]:
            faults.append(f"{where}: gold {rec['gold']!r} != {self.gold[test_id]!r}")
        # The final prompt holds the demo texts and the test text; the
        # keyword rule over the whole prompt is the union over those texts.
        hit = frozenset().union(*(self.keywords.get(i, frozenset()) for i in ids + [test_id]))
        expected = gen.rule_single(hit or frozenset({gen.DEFAULT_LABEL}))
        if rec["predicted"] != expected:
            faults.append(f"{where}: predicted {rec['predicted']!r}, rule gives {expected!r}")

        method = rec["method"]
        if method == "random":
            if sources != ["random"] * shots:
                faults.append(f"{where}: random demos {sources}")
            if ids != self.random_demos("random", test_id, shots, rec["seed"]):
                faults.append(f"{where}: random demos differ from the seeded replay")
            return faults
        if method == "knn":
            if sources != ["knn"] * len(ids):
                faults.append(f"{where}: knn demos {sources}")
            return faults + self._check_knn(test_id, ids, shots, set())

        alpha = float(method[len("marginsel(alpha="):-1])
        cset = self.cset[test_id]
        if rec["step1"] != sorted(cset):
            faults.append(f"{where}: step1 {rec['step1']} != {sorted(cset)}")
        pool = self.pool.get(cset, [])
        quota = math.floor(alpha * shots + 0.5)
        n_hard = sources.count("hard")
        hard = ids[:n_hard]
        if sources[:n_hard] != ["hard"] * n_hard:
            faults.append(f"{where}: hard demos do not come first")
        if not set(hard) <= set(pool):
            faults.append(f"{where}: hard demos outside the test's candidate pool")
        elif pool and tuple(hard) != self.hard_demos(test_id, quota, rec["seed"]):
            faults.append(f"{where}: hard demos differ from the 1/rho-weighted replay")
        if alpha == 1.0:
            if rec["fallback"] != (not pool):
                faults.append(f"{where}: fallback={rec['fallback']} with pool {len(pool)}")
            if not pool:
                if sources != [fallback] * shots:
                    faults.append(f"{where}: fallback demos {sources}")
                if fallback == "random" and ids != self.random_demos(
                        "fallback", test_id, shots, rec["seed"]):
                    faults.append(f"{where}: fallback demos differ from the seeded replay")
                if fallback == "knn":
                    faults += self._check_knn(test_id, ids, shots, set())
                return faults
            if n_hard != min(quota, len(pool)) or len(ids) != n_hard:
                faults.append(f"{where}: {n_hard} hard of {len(ids)}, pool {len(pool)}")
            return faults
        if rec["fallback"]:
            faults.append(f"{where}: fallback fired at alpha < 1")
        if n_hard != min(quota, len(pool)):
            faults.append(f"{where}: {n_hard} hard demos, expected {min(quota, len(pool))}")
        if sources[n_hard:] != ["knn"] * (len(ids) - n_hard):
            faults.append(f"{where}: knn demos do not follow the hard demos")
        return faults + self._check_knn(test_id, ids[n_hard:], shots - n_hard, set(hard))

    def check_run(self, run_dir: Path, test_ids: list[str], cells: list[tuple],
                  fallback: str) -> tuple[int, list[str]]:
        """Check one run directory.  ``cells`` lists the expected (method
        label, shot, seed) cells.  Returns (predictions scored, faults)."""
        records = _read_jsonl(run_dir / "records.jsonl")
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        faults = []
        by_cell: dict[tuple, list[dict]] = defaultdict(list)
        for rec in records:
            by_cell[(rec["method"], rec["shot"], rec["seed"])].append(rec)
            faults += self.check_record(rec, fallback)
        reported = sorted((c["method"], c["shot"], c["seed"]) for c in report["cells"])
        if reported != sorted(cells):
            faults.append(f"report cells {reported} differ from the grid {sorted(cells)}")
        scored = 0
        for cell in report["cells"]:
            key = (cell["method"], cell["shot"], cell["seed"])
            if "error" in cell:
                faults.append(f"{key}: cell failed: {cell['error']}")
            if "macro_f1" not in cell:
                continue
            got = by_cell.get(key, [])
            scored += len(got)
            if sorted(r["id"] for r in got) != sorted(test_ids):
                faults.append(f"{key}: records cover {len(got)} of {len(test_ids)} test ids")
            recount = macro_f1([(r["gold"], r["predicted"]) for r in got])
            if not math.isclose(cell["macro_f1"], recount, rel_tol=1e-12, abs_tol=1e-12):
                faults.append(f"{key}: macro_f1 {cell['macro_f1']} != recount {recount}")
        return scored, faults


def macro_f1(pairs: list[tuple[str, str]]) -> float:
    """Confusion-matrix recount: mean over every label of 2TP/(2TP+FP+FN),
    0 for a label with an empty denominator."""
    scores = []
    for label in gen.LABELS:
        tp = sum(1 for g, p in pairs if g == label and p == label)
        fp = sum(1 for g, p in pairs if g != label and p == label)
        fn = sum(1 for g, p in pairs if g == label and p != label)
        scores.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return sum(scores) / len(scores)
