"""Seeded synthetic inputs for the benchmark.

Everything here depends only on the seed and the sizes passed in, never on
the program under test, so the oracles in ``oracles.py`` can recompute the
expected candidate sets and predictions from the same tables.

Make-up of one data set:

* Label space and prompts: the built-in ``movie_sentiment`` set (5 labels).
* Keyword table: every label owns ``WORDS_PER_LABEL`` single-label
  keywords; one pair keyword per neighbouring label pair maps to both; one
  test-only keyword (``NOVEL``) maps to all five labels, so its test
  inputs have no training example with the same candidate set and the
  fallback fires.
* Label prior: ``PRIOR`` (skewed, so the majority candidate sets hold
  thousands of training rows in a 20k pool).  Training rows draw labels
  from it; test splits take its exact counts.
* Text: 12-30 filler words from an alphabet without 'q', plus one keyword
  of the gold label and, with probability ``P_PAIR``, one pair keyword that
  touches the gold label.  Test splits instead take exact shares:
  ``P_NOVEL_TEST`` of them carry ``NOVEL`` and ``P_PAIR`` of the rest a
  pair keyword.  Keywords start with 'qz', which appears in no
  filler word and no built-in template, so the mock's substring match sees
  exactly the keywords placed in the text.
* Embeddings: 384-d, gold-label centroid + keyword directions + Gaussian
  noise, written with 9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import numpy as np

LABELS = ("very negative", "negative", "neutral", "positive", "very positive")
PRIOR = (0.40, 0.25, 0.17, 0.11, 0.07)
WORDS_PER_LABEL = 3
P_PAIR = 0.35
P_NOVEL_TEST = 0.12
DIM = 384

_FILLER_LETTERS = "bcdfghjklmnprstvw"
_VOWELS = "aeiou"


def _keyword_table() -> dict[str, tuple[str, ...]]:
    table: dict[str, tuple[str, ...]] = {}
    for li, label in enumerate(LABELS):
        for j in range(WORDS_PER_LABEL):
            table[f"qz{li}s{j}"] = (label,)
    for li in range(len(LABELS) - 1):
        table[f"qz{li}p{li + 1}"] = (LABELS[li], LABELS[li + 1])
    table["qzall"] = LABELS
    return table


KEYWORDS = _keyword_table()
SINGLE = {label: [k for k, v in KEYWORDS.items() if v == (label,)] for label in LABELS}
PAIRS = {
    label: [k for k, v in KEYWORDS.items() if len(v) == 2 and label in v]
    for label in LABELS
}
NOVEL = "qzall"
DEFAULT_LABEL = LABELS[2]


def keyword_labels(text: str) -> frozenset[str]:
    """Labels of every keyword occurring in the lowercased text.  The mock
    backend's rule replies with these, or with DEFAULT_LABEL when empty."""
    lowered = text.lower()
    return frozenset(l for kw, labels in KEYWORDS.items() if kw in lowered for l in labels)


def rule_single(labels: frozenset[str]) -> str:
    """Single-label reply for a final prompt: the first matched label in
    space order."""
    return next(label for label in LABELS if label in labels)


def _vocabulary(rng: random.Random, size: int = 3000) -> list[str]:
    return [
        "".join(
            rng.choice(_FILLER_LETTERS) + rng.choice(_VOWELS)
            for _ in range(rng.randint(1, 4))
        )
        for _ in range(size)
    ]


def _text(
    rng: random.Random, vocab: list[str], gold: str, extra: str | None
) -> tuple[str, list[str]]:
    words = rng.choices(vocab, k=rng.randint(12, 30))
    keywords = [rng.choice(SINGLE[gold])]
    if extra == NOVEL:
        keywords.append(NOVEL)
    elif extra == "pair":
        keywords.append(rng.choice(PAIRS[gold]))
    for kw in keywords:
        words.insert(rng.randrange(len(words) + 1), kw)
    return " ".join(words), keywords


def _quotas(n: int, shares: tuple[float, ...]) -> list[int]:
    """Largest-remainder split of n by shares."""
    exact = [n * s for s in shares]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def make_split(seed: int, n: int, prefix: str, test: bool) -> list[dict]:
    """n examples with ids ``{prefix}{i:06d}``.  Training labels and pair
    keywords are drawn independently; a test split has the exact label
    counts of PRIOR and exact NOVEL and pair shares, in random order, so
    every seed asks the same mix of work and only texts and vectors vary."""
    rng = random.Random(f"{seed}:{prefix}")
    vocab = _vocabulary(rng)
    if test:
        golds = [label for label, q in zip(LABELS, _quotas(n, PRIOR)) for _ in range(q)]
        n_novel = round(n * P_NOVEL_TEST)
        n_pair = round((n - n_novel) * P_PAIR)
        extras = [NOVEL] * n_novel + ["pair"] * n_pair + [None] * (n - n_novel - n_pair)
        rng.shuffle(golds)
        rng.shuffle(extras)
    else:
        golds = rng.choices(LABELS, weights=PRIOR, k=n)
        extras = ["pair" if rng.random() < P_PAIR else None for _ in range(n)]
    rows = []
    for i, (gold, extra) in enumerate(zip(golds, extras)):
        text, keywords = _text(rng, vocab, gold, extra)
        rows.append({"id": f"{prefix}{i:06d}", "text": text, "label": gold, "kw": keywords})
    return rows


def write_dataset(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps({"id": row["id"], "text": row["text"], "label": row["label"]}) + "\n")


def write_embeddings(rows: list[dict], seed: int, path: Path) -> None:
    rng = np.random.default_rng(seed)
    centroid = {label: rng.standard_normal(DIM) for label in LABELS}
    direction = {kw: rng.standard_normal(DIM) for kw in KEYWORDS}
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            vec = 2.0 * centroid[row["label"]] + rng.standard_normal(DIM) * 1.5
            for kw in row["kw"]:
                vec += direction[kw]
            fh.write(
                '{"id": "%s", "vector": [%s]}\n'
                % (row["id"], ", ".join(f"{x:.9g}" for x in vec))
            )


def mock_rules() -> dict[str, list[str]]:
    return {kw: list(labels) for kw, labels in KEYWORDS.items()}


def main(argv: list[str] | None = None) -> None:
    """Write train.jsonl, test.jsonl and, with --embeddings, emb.jsonl."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--train", type=int, required=True)
    parser.add_argument("--test", type=int, required=True)
    parser.add_argument("--embeddings", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    train = make_split(args.seed, args.train, "tr", test=False)
    test = make_split(args.seed, args.test, "te", test=True)
    write_dataset(train, args.out / "train.jsonl")
    write_dataset(test, args.out / "test.jsonl")
    if args.embeddings:
        write_embeddings(train + test, args.seed, args.out / "emb.jsonl")


if __name__ == "__main__":
    main()
