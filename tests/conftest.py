import json
import re
from collections import Counter

import pytest

from marginsel.core import CandidateSet, Example, LabelSpace, canonical_label
from marginsel.dataset import Dataset
from marginsel.llm_client import MockRule, mock_multilabel
from marginsel.core import candidate_key
from marginsel.prompting import (
    CANDIDATE_ASSIGNMENT,
    FINAL_PREDICTION,
    PromptTemplate,
)

_TAG = re.compile(r"<label>(.*?)</label>", re.DOTALL)


def candidate_set_from_key(key: str, space: LabelSpace) -> CandidateSet:
    """The candidate set whose candidate_key is key: character i is label i."""
    assert len(key) == len(space) and set(key) <= {"0", "1"}, key
    return CandidateSet(int(key[::-1], 2), len(space))


@pytest.fixture
def rgb_space():
    return LabelSpace(["red", "green", "blue"])


def synthetic_templates():
    """Minimal template pair for synthetic-label tests.  The candidate user
    prompt carries the comma-separated marker the mock backend keys on."""
    candidate = PromptTemplate(
        CANDIDATE_ASSIGNMENT,
        "You sort items into bins.",
        "Given the text: '{text}', list every plausible bin.\n{labels}\n"
        "Return ALL relevant labels in comma-separated format within the "
        "<label></label> tags.",
    )
    final = PromptTemplate(
        FINAL_PREDICTION,
        "You sort items into bins.",
        "Given the text: '{text}', pick the single best bin.\n{labels}\n"
        "Provide the label exactly as follows: <label>label</label>.",
    )
    return candidate, final


class MajorityEchoBackend:
    """Final-prompt oracle: replies with the most frequent known label among
    the tag spans already present in the prompt (the demo labels)."""

    temperature = 0.0

    def __init__(self, space: LabelSpace, model_name: str = "majority-echo"):
        self.space = space
        self.model_name = model_name
        self.calls = 0

    def complete(self, system: str, user: str) -> str:
        self.calls += 1
        spans = [canonical_label(s) for s in _TAG.findall(user)]
        counts = Counter(s for s in spans if s in self.space)
        if not counts:
            return "<label>unparseable</label>"
        best = max(self.space.labels, key=lambda l: counts.get(l, 0))
        return f"<label>{best}</label>"


class PlantedBackend:
    """End-to-end oracle backend.

    Candidate prompts (detected by the comma-separated marker) are answered
    from the keyword rule table.  Final prompts are answered correctly (the
    gold extracted from the test text via gold_words) iff at least half the
    demonstrations in the prompt share the test text's candidate key;
    otherwise the reply is deterministically wrong (next label in space
    order after the gold).
    """

    temperature = 0.0

    def __init__(self, rule: MockRule, space: LabelSpace, gold_words: dict[str, str]):
        self.rule = rule
        self.space = space
        self.gold_words = gold_words
        self.model_name = "planted"
        self.calls = 0

    def _gold_of(self, text: str) -> str:
        for word, label in self.gold_words.items():
            if word in text:
                return label
        raise AssertionError(f"no gold word in {text!r}")

    def _key_of(self, text: str) -> str:
        return candidate_key(mock_multilabel(self.rule, text, self.space))

    def complete(self, system: str, user: str) -> str:
        self.calls += 1
        if "comma-separated" in user:
            matched = mock_multilabel(self.rule, user, self.space)
            return f"<label>{','.join(matched.labels_in(self.space))}</label>"
        demos = re.findall(r"Text: '(.*?)'\n<label>(.*?)</label>", user, re.DOTALL)
        test_text = re.search(r"Given the text: '(.*?)', pick", user, re.DOTALL).group(1)
        gold = self._gold_of(test_text)
        test_key = self._key_of(test_text)
        share = sum(1 for text, _ in demos if self._key_of(text) == test_key)
        if demos and 2 * share >= len(demos):
            return f"<label>{gold}</label>"
        labels = self.space.labels
        wrong = labels[(labels.index(gold) + 1) % len(labels)]
        return f"<label>{wrong}</label>"


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def make_dataset(space: LabelSpace, rows: list[tuple[str, str, str]]) -> Dataset:
    return Dataset(
        space, tuple(Example(id=i, text=t, gold=g) for i, t, g in rows)
    )


PLANTED_SIGS = ["alphasig", "betasig", "gammasig"]
PLANTED_GOLD_WORDS = {"rubyword": "red", "mossword": "green", "waveword": "blue"}


def planted_rule() -> MockRule:
    return MockRule(
        {
            "alphasig": frozenset({"red", "green"}),
            "betasig": frozenset({"green", "blue"}),
            "gammasig": frozenset({"blue", "red"}),
        },
        default="red",
    )


def planted_pipeline(n_train_per_sig=8, n_test_per_sig=3, with_store=True):
    """Synthetic end-to-end fixture: texts carry one signal word fixing the
    candidate key and one gold word fixing the label; the PlantedBackend
    answers the final prompt correctly iff at least half its demos share the
    test's candidate key."""
    import random as _random

    from marginsel.evalharness import ExperimentContext
    from marginsel.knn import build_store
    from marginsel.selection import build_lookup

    space = LabelSpace(["red", "green", "blue"])
    gold_word_of = {v: k for k, v in PLANTED_GOLD_WORDS.items()}
    labels = space.labels

    def rows(prefix, per_sig):
        out = []
        counter = 0
        for sig in PLANTED_SIGS:
            for i in range(per_sig):
                gold = labels[counter % 3]
                counter += 1
                out.append(
                    (f"{prefix}{sig[:1]}{i}", f"{sig} {gold_word_of[gold]} n{i}", gold)
                )
        return out

    train = make_dataset(space, rows("tr-", n_train_per_sig))
    test = make_dataset(space, rows("te-", n_test_per_sig))
    backend = PlantedBackend(planted_rule(), space, PLANTED_GOLD_WORDS)
    candidate_template, final_template = synthetic_templates()
    lookup = build_lookup(train, backend, candidate_template)
    store = None
    if with_store:
        rng = _random.Random(0)
        store = build_store(
            (ex.id, [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)])
            for ds in (train, test)
            for ex in ds.examples
        )
    return ExperimentContext(
        space=space,
        train=train,
        test=test,
        backend=backend,
        candidate_template=candidate_template,
        final_template=final_template,
        lookup=lookup,
        store=store,
    )
