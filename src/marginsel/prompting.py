"""Prompt rendering for the two pipeline calls, and reply parsing.

Two prompt kinds exist: ``candidate_assignment`` asks the model for every
plausible label of one input (comma-separated, inside ``<label></label>``
tags); ``final_prediction`` asks for exactly one label, optionally preceded
by demonstration input/label pairs.

Templates are plain strings with a ``{text}`` slot; an optional ``{labels}``
slot expands to the label list in space declaration order.  The built-in
templates below cover the three tasks the pipeline ships with; anything else
supplies template files with the same slot convention.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .core import (
    CandidateSet,
    LabelSpace,
    MarginSelError,
    candidate_set_from_labels,
    canonical_label,
)

log = logging.getLogger(__name__)

CANDIDATE_ASSIGNMENT = "candidate_assignment"
FINAL_PREDICTION = "final_prediction"

_LABEL_SPAN = re.compile(r"<label>(.*?)</label>", re.DOTALL)


class MissingSlot(MarginSelError):
    def __init__(self, slot: str):
        super().__init__(f"template lacks the {slot!r} slot")


class NoTag(MarginSelError):
    pass


class EmptySet(MarginSelError):
    pass


class Ambiguous(MarginSelError):
    def __init__(self, labels: Sequence[str]):
        self.labels = tuple(labels)
        super().__init__(f"expected one label, got {list(labels)}")


@dataclass(frozen=True)
class PromptTemplate:
    kind: str
    system: str
    user: str

    def __post_init__(self):
        if self.kind not in (CANDIDATE_ASSIGNMENT, FINAL_PREDICTION):
            raise ValueError(f"unknown template kind {self.kind!r}")


def _fill(template: str, text: str, space: LabelSpace) -> str:
    if "{text}" not in template:
        raise MissingSlot("{text}")
    filled = template.replace("{labels}", "\n".join(f"- {l}" for l in space.labels))
    return filled.replace("{text}", text)


def render_candidate_prompt(
    template: PromptTemplate, example_text: str, space: LabelSpace
) -> tuple[str, str]:
    """Render the multi-label assignment prompt for one input text."""
    if template.kind != CANDIDATE_ASSIGNMENT:
        raise ValueError("template is not a candidate-assignment template")
    if not example_text.strip():
        log.warning("rendering candidate prompt for empty example text")
    return template.system, _fill(template.user, example_text, space)


def _sanitize_demo_text(text: str) -> str:
    # Angle brackets inside demonstration text would forge label tags.
    return text.replace("<", "&lt;").replace(">", "&gt;")


def render_demo_line(text: str, label: str) -> str:
    """One (text, label) demonstration: the input followed by its label
    inside label tags."""
    return f"Text: '{_sanitize_demo_text(text)}'\n<label>{label}</label>"


def join_prompt(demo_lines: Sequence[str], instruction: str) -> str:
    """The final user prompt: the demonstration lines in the exact order
    given, then the instruction, each part separated by a blank line."""
    return "\n\n".join((*demo_lines, instruction))


def render_final_prompt(
    template: PromptTemplate,
    demos: Sequence[tuple[str, str]],
    test_text: str,
    space: LabelSpace,
) -> tuple[str, str]:
    """Render the single-label prediction prompt: demonstrations first (may
    be empty, giving the pure zero-shot prompt, which is the instruction
    alone), then the instruction with the test text in its slot."""
    if template.kind != FINAL_PREDICTION:
        raise ValueError("template is not a final-prediction template")
    instruction = _fill(template.user, test_text, space)
    return template.system, join_prompt([render_demo_line(*demo) for demo in demos], instruction)


def parse_label_tags(
    reply: str, space: LabelSpace, multi: bool
) -> CandidateSet | str:
    """Extract the first ``<label>...</label>`` span of a model reply.

    multi=True: split on commas, canonicalize, drop tokens outside the
    space, return the CandidateSet of what survives (EmptySet if nothing
    does).  multi=False: exactly one known label must result; returns it.
    Raises NoTag when no span exists.  Never raises anything else, whatever
    bytes the reply contains.
    """
    match = _LABEL_SPAN.search(reply)
    if match is None:
        raise NoTag(f"no <label></label> span in reply: {reply[:80]!r}")
    tokens = [canonical_label(tok) for tok in match.group(1).split(",")]
    known: list[str] = []
    for tok in tokens:
        if tok and tok in space and tok not in known:
            known.append(tok)
    if not known:
        raise EmptySet(f"no known label among {tokens!r}")
    if multi:
        return candidate_set_from_labels(known, space)
    if len(known) > 1:
        raise Ambiguous(known)
    return known[0]


def load_template_dir(path: str | Path) -> dict[str, PromptTemplate]:
    """Load templates from a directory holding four UTF-8 text files:
    candidate.system.txt, candidate.user.txt, final.system.txt,
    final.user.txt."""
    path = Path(path)
    out: dict[str, PromptTemplate] = {}
    for stem, kind in (("candidate", CANDIDATE_ASSIGNMENT), ("final", FINAL_PREDICTION)):
        system = (path / f"{stem}.system.txt").read_text(encoding="utf-8")
        user = (path / f"{stem}.user.txt").read_text(encoding="utf-8")
        out[kind] = PromptTemplate(kind=kind, system=system, user=user)
    return out


# --------------------------------------------------------------------------
# Built-in templates.  Each task's label descriptions are written once, in
# space order, and open both of its system prompts; its final user prompt
# lists the labels through the {labels} slot.  The matching spaces are in
# BUILTIN_SPACES.
# --------------------------------------------------------------------------

_SST5_LABELS = """\
- very negative: Reviews that express extremely unfavorable opinions, strong criticism, or intense dissatisfaction regarding the movie.
- negative: Reviews that express unfavorable opinions, criticism, or dissatisfaction regarding the movie.
- neutral: Reviews that express neither strong positive nor strong negative opinions, or that are balanced between praise and criticism.
- positive: Reviews that express favorable opinions, praise, or satisfaction regarding the movie.
- very positive: Reviews that express extremely favorable opinions, strong praise, or intense satisfaction regarding the movie.
"""

_SST5_CANDIDATE_SYSTEM = "You are an expert in sentiment analysis of movie reviews. Your goal is to assign label(s) to each review based on its sentiment:\n" + _SST5_LABELS

_SST5_CANDIDATE_USER = """\
Given the movie review: '{text}', you must carefully analyze EVERY POSSIBLE sentiment expressed in the review.
For EACH label below, independently consider if it applies (even partially) to the review:
- very negative: Does the review express ANY extremely unfavorable opinions, strong criticism, or intense dissatisfaction regarding the movie?
- negative: Does the review express ANY unfavorable opinions, criticism, or dissatisfaction regarding the movie?
- neutral: Does the review express ANY neutral opinions, or is it balanced between praise and criticism?
- positive: Does the review express ANY favorable opinions, praise, or satisfaction regarding the movie?
- very positive: Does the review express ANY extremely favorable opinions, strong praise, or intense satisfaction regarding the movie?

IMPORTANT:
- Evaluate each label separately - the presence of one label doesn't exclude others.
- Even slight or partial matches should be included.
- Reviews can express mixed sentiments.
- When in doubt, include the label.

Return ALL relevant labels in comma-separated format within the <label></label> tags (e.g., <label>very negative,negative,neutral,positive,very positive</label>).
"""

_SST5_FINAL_SYSTEM = "You are an expert in sentiment analysis of movie reviews. Your goal is to assign each review a label based on its sentiment:\n" + _SST5_LABELS

_SST5_FINAL_USER = """\
Given the movie review: '{text}', analyze the sentiment expressed in the review step-by-step.
Identify which sentiment label is most appropriate based on content, tone, and context.
Provide the label exactly as follows: <label>label</label>, where 'label' is one of the following:
{labels}

Do not include any additional formatting or characters, just return the label within the <label></label> tags.
"""

_DISTORTION_LABELS = """\
- mental filter: When the text focuses exclusively on negative details while ignoring positive ones.
- overgeneralization: When the text sees a single negative event as a never-ending pattern.
- personalization: When the text blames oneself for events outside one's control.
- emotional reasoning: When the text assumes that negative emotions reflect reality.
- mind reading: When the text assumes what others are thinking without evidence.
"""

_DISTORTION_CANDIDATE_SYSTEM = "You are an expert in cognitive distortion detection. Your goal is to assign label(s) to each text based on the type of cognitive distortion present:\n" + _DISTORTION_LABELS

_DISTORTION_CANDIDATE_USER = """\
Given the text: '{text}', you must carefully analyze EVERY POSSIBLE cognitive distortion present.
For EACH label below, independently consider if it applies (even partially) to the text:
- mental filter: Does the text focus exclusively on negative details while ignoring positive ones? (even partially)
- overgeneralization: Does the text see a single negative event as a never-ending pattern? (even partially)
- personalization: Does the text blame oneself for events outside one's control? (even partially)
- emotional reasoning: Does the text assume that negative emotions reflect reality? (even partially)
- mind reading: Does the text assume what others are thinking without evidence? (even partially)

IMPORTANT:
- Evaluate each label separately - the presence of one label doesn't exclude others
- Even slight or partial matches should be included
- Many texts may exhibit 1+ distortions simultaneously
- When in doubt, include the label

Return ALL relevant labels in comma-separated format within the <label></label> tags (e.g., <label>mental filter,overgeneralization,personalization,emotional reasoning,mind reading</label>).
"""

_DISTORTION_FINAL_SYSTEM = "You are an expert in cognitive distortion detection. Your goal is to assign each text a label based on the type of cognitive distortion present:\n" + _DISTORTION_LABELS

_DISTORTION_FINAL_USER = """\
Given the text: '{text}', analyze the cognitive distortion present step-by-step.
Identify which cognitive distortion label is most appropriate based on content, tone, and context.
Provide the label exactly as follows: <label>label</label>, where 'label' is one of the following:
{labels}
Do not include any additional formatting or characters, just return the label within the <label></label> tags.
"""

_MEDICAL_LABELS = """\
- neoplasms: Abstracts related to tumors, cancers, or abnormal tissue growth.
- digestive system diseases: Abstracts related to diseases of the digestive system, such as Crohn's disease or ulcers.
- nervous system diseases: Abstracts related to diseases of the nervous system, such as Alzheimer's or Parkinson's disease.
- cardiovascular diseases: Abstracts related to diseases of the heart and blood vessels, such as hypertension or heart failure.
- general pathological conditions: Abstracts related to general pathological conditions, such as inflammation or infection.
"""

_MEDICAL_CANDIDATE_SYSTEM = "You are an expert in medical text analysis. Your goal is to assign label(s) to each medical abstract based on its content:\n" + _MEDICAL_LABELS

_MEDICAL_CANDIDATE_USER = """\
Given the medical abstract: '{text}', you must carefully analyze EVERY POSSIBLE topic expressed in the abstract.
For EACH label below, independently consider if it applies (even partially) to the abstract:
- neoplasms: Does the abstract discuss ANY topics related to tumors, cancers, or abnormal tissue growth?
- digestive system diseases: Does the abstract discuss ANY topics related to diseases of the digestive system, such as Crohn's disease or ulcers?
- nervous system diseases: Does the abstract discuss ANY topics related to diseases of the nervous system, such as Alzheimer's or Parkinson's disease?
- cardiovascular diseases: Does the abstract discuss ANY topics related to diseases of the heart and blood vessels, such as hypertension or heart failure?
- general pathological conditions: Does the abstract discuss ANY topics related to general pathological conditions, such as inflammation or infection?

IMPORTANT:
- Evaluate each label separately - the presence of one label doesn't exclude others.
- Even slight or partial matches should be included.
- Abstracts can discuss multiple topics simultaneously.
- When in doubt, include the label.

Return ALL relevant labels in comma-separated format within the <label></label> tags (e.g., <label>neoplasms,digestive system diseases,nervous system diseases,cardiovascular diseases,general pathological conditions</label>).
"""

_MEDICAL_FINAL_SYSTEM = "You are an expert in medical text analysis. Your goal is to assign each medical abstract a label based on its content:\n" + _MEDICAL_LABELS

_MEDICAL_FINAL_USER = """\
Given the medical abstract: '{text}', analyze the content step-by-step.
Identify which field of study label is most appropriate based on the topic, methodology, and context.
Provide the label exactly as follows: <label>label</label>, where 'label' is one of the following:
{labels}
Do not include any additional formatting or characters, just return the label within the <label></label> tags.
"""

BUILTIN_SPACES: dict[str, LabelSpace] = {
    "movie_sentiment": LabelSpace(
        ["very negative", "negative", "neutral", "positive", "very positive"]
    ),
    "cognitive_distortion": LabelSpace(
        [
            "mental filter",
            "overgeneralization",
            "personalization",
            "emotional reasoning",
            "mind reading",
        ]
    ),
    "medical_abstracts": LabelSpace(
        [
            "neoplasms",
            "digestive system diseases",
            "nervous system diseases",
            "cardiovascular diseases",
            "general pathological conditions",
        ]
    ),
}

BUILTIN_TEMPLATES: dict[str, dict[str, PromptTemplate]] = {
    "movie_sentiment": {
        CANDIDATE_ASSIGNMENT: PromptTemplate(
            CANDIDATE_ASSIGNMENT, _SST5_CANDIDATE_SYSTEM, _SST5_CANDIDATE_USER
        ),
        FINAL_PREDICTION: PromptTemplate(
            FINAL_PREDICTION, _SST5_FINAL_SYSTEM, _SST5_FINAL_USER
        ),
    },
    "cognitive_distortion": {
        CANDIDATE_ASSIGNMENT: PromptTemplate(
            CANDIDATE_ASSIGNMENT, _DISTORTION_CANDIDATE_SYSTEM, _DISTORTION_CANDIDATE_USER
        ),
        FINAL_PREDICTION: PromptTemplate(
            FINAL_PREDICTION, _DISTORTION_FINAL_SYSTEM, _DISTORTION_FINAL_USER
        ),
    },
    "medical_abstracts": {
        CANDIDATE_ASSIGNMENT: PromptTemplate(
            CANDIDATE_ASSIGNMENT, _MEDICAL_CANDIDATE_SYSTEM, _MEDICAL_CANDIDATE_USER
        ),
        FINAL_PREDICTION: PromptTemplate(
            FINAL_PREDICTION, _MEDICAL_FINAL_SYSTEM, _MEDICAL_FINAL_USER
        ),
    },
}
