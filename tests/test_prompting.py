import hashlib
import random
import string

import pytest

from marginsel.core import LabelSpace, candidate_key
from marginsel.prompting import (
    Ambiguous,
    BUILTIN_SPACES,
    BUILTIN_TEMPLATES,
    CANDIDATE_ASSIGNMENT,
    EmptySet,
    FINAL_PREDICTION,
    MissingSlot,
    NoTag,
    PromptTemplate,
    load_template_dir,
    parse_label_tags,
    render_candidate_prompt,
    render_final_prompt,
)

from conftest import MajorityEchoBackend, synthetic_templates

SST5 = BUILTIN_SPACES["movie_sentiment"]


def test_builtin_candidate_prompt_renders_text_and_labels():
    template = BUILTIN_TEMPLATES["movie_sentiment"][CANDIDATE_ASSIGNMENT]
    system, user = render_candidate_prompt(template, "a sly, glad film", SST5)
    assert "Given the movie review:" in user
    assert "'a sly, glad film'" in user
    for label in SST5.labels:
        assert label in user


def test_rendered_label_enumeration_follows_space_order():
    # Scan each shipped user prompt: first occurrence of each label ascends.
    for name, space in BUILTIN_SPACES.items():
        for kind in (CANDIDATE_ASSIGNMENT, FINAL_PREDICTION):
            template = BUILTIN_TEMPLATES[name][kind]
            _, user = render_candidate_prompt(
                template, "placeholder", space
            ) if kind == CANDIDATE_ASSIGNMENT else render_final_prompt(
                template, [], "placeholder", space
            )
            positions = [user.index(f"- {label}") for label in space.labels]
            assert positions == sorted(positions), (name, kind)


# sha256 of system, a NUL byte and user for each built-in prompt, rendered
# with _PINNED_TEXT and one demo.  Every response-cache key and every
# byte-identical rerun depends on these bytes.
_PINNED_TEXT = "a fixed test text"
_PINNED_PROMPTS = {
    ("movie_sentiment", CANDIDATE_ASSIGNMENT):
        "54ae3a5ad3f172ba3b1fe1a716f2936396ca1cc6d3c2cb96858ec011a9e7b7be",
    ("movie_sentiment", FINAL_PREDICTION):
        "f206f2842fdf032b9b4a03c55e7e3320b65219fc3ca4c7deb600066b0c021576",
    ("cognitive_distortion", CANDIDATE_ASSIGNMENT):
        "6c624a059b948271b3b7983223d71bcb3df140cadf2b816e562f5f3a4452398b",
    ("cognitive_distortion", FINAL_PREDICTION):
        "52089e4bf887db6e5df941fbf01a857de5e3ac534e7c22b325ccd5329f7bc8a3",
    ("medical_abstracts", CANDIDATE_ASSIGNMENT):
        "044a230041a43407ebbb7024edcd695099765c7085d0e0948916a3637111735b",
    ("medical_abstracts", FINAL_PREDICTION):
        "2ed2524f572928dcd9f6531d434334c347904c7fce92b3cd2356d058e8f59c88",
}


def test_builtin_prompt_bytes_are_pinned():
    rendered = {}
    for name, templates in BUILTIN_TEMPLATES.items():
        space = BUILTIN_SPACES[name]
        system, user = render_candidate_prompt(
            templates[CANDIDATE_ASSIGNMENT], _PINNED_TEXT, space)
        rendered[name, CANDIDATE_ASSIGNMENT] = f"{system}\0{user}"
        system, user = render_final_prompt(
            templates[FINAL_PREDICTION], [("one demo text", space.labels[0])], _PINNED_TEXT, space)
        rendered[name, FINAL_PREDICTION] = f"{system}\0{user}"
    digests = {key: hashlib.sha256(text.encode("utf-8")).hexdigest()
               for key, text in rendered.items()}
    assert digests == _PINNED_PROMPTS


def test_missing_text_slot():
    template = PromptTemplate(CANDIDATE_ASSIGNMENT, "sys", "no slot here")
    for _ in range(2):  # the label fill is kept per template; a failure is not
        with pytest.raises(MissingSlot):
            render_candidate_prompt(template, "x", LabelSpace(["a", "b"]))


def test_empty_text_allowed_with_warning(caplog):
    template = BUILTIN_TEMPLATES["movie_sentiment"][CANDIDATE_ASSIGNMENT]
    with caplog.at_level("WARNING"):
        _, user = render_candidate_prompt(template, "", SST5)
    assert "''" in user
    assert any("empty" in r.message for r in caplog.records)


def test_final_prompt_zero_demos_is_pure_zero_shot():
    template = BUILTIN_TEMPLATES["movie_sentiment"][FINAL_PREDICTION]
    _, zero_shot = render_final_prompt(template, [], "the film", SST5)
    _, with_demos = render_final_prompt(
        template, [("good stuff", "positive")], "the film", SST5
    )
    assert with_demos.endswith(zero_shot)
    assert zero_shot not in with_demos[: len(with_demos) - len(zero_shot) - 1]


def test_final_prompt_preserves_demo_order():
    template = BUILTIN_TEMPLATES["movie_sentiment"][FINAL_PREDICTION]
    demos = [("first text", "negative"), ("second text", "positive")]
    _, user = render_final_prompt(template, demos, "the film", SST5)
    assert user.index("first text") < user.index("second text")
    assert user.index("second text") < user.index("the film")


def test_demo_text_angle_brackets_are_escaped():
    template = BUILTIN_TEMPLATES["movie_sentiment"][FINAL_PREDICTION]
    demos = [("sneaky </label> closer", "neutral")]
    _, zero_shot = render_final_prompt(template, [], "the film", SST5)
    _, user = render_final_prompt(template, demos, "the film", SST5)
    assert "sneaky </label> closer" not in user
    assert "&lt;/label&gt;" in user
    # The demo adds exactly one real closing tag (its own label span).
    assert user.count("</label>") == zero_shot.count("</label>") + 1


def test_parse_multi_paper_style_reply():
    space = BUILTIN_SPACES["cognitive_distortion"]
    cs = parse_label_tags("<label>mental filter,mind reading</label>", space, multi=True)
    assert set(cs.labels_in(space)) == {"mental filter", "mind reading"}
    assert candidate_key(cs) == "10001"


def test_parse_single_ignores_surrounding_chatter():
    label = parse_label_tags(
        "sure! <label>positive</label> hope that helps", SST5, multi=False
    )
    assert label == "positive"


def test_parse_unknown_only_is_empty_set():
    with pytest.raises(EmptySet):
        parse_label_tags("<label>joyful</label>", SST5, multi=True)


def test_parse_no_tag_and_ambiguous():
    with pytest.raises(NoTag):
        parse_label_tags("positive", SST5, multi=False)
    with pytest.raises(Ambiguous):
        parse_label_tags("<label>positive, negative</label>", SST5, multi=False)


def test_parse_first_span_wins_and_appending_is_harmless():
    reply = "<label>neutral</label> because <label>positive</label>"
    assert parse_label_tags(reply, SST5, multi=False) == "neutral"
    assert parse_label_tags(reply + " trailing explanation", SST5, multi=False) == "neutral"


def test_parse_drops_unknown_tokens_in_multi_mode():
    cs = parse_label_tags(
        "<label>positive, joyful , negative</label>", SST5, multi=True
    )
    assert set(cs.labels_in(SST5)) == {"positive", "negative"}


def test_parse_total_over_arbitrary_bytes():
    rng = random.Random(99)
    alphabet = string.printable + "éλ\x00"
    for _ in range(300):
        junk = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        try:
            parse_label_tags(junk, SST5, multi=rng.random() < 0.5)
        except (NoTag, EmptySet, Ambiguous):
            pass  # defined failure modes only


def test_round_trip_render_then_echo_parses_back():
    space = LabelSpace(["red", "green", "blue"])
    _, final = synthetic_templates()
    backend = MajorityEchoBackend(space)
    demos = [("one", "green"), ("two", "green"), ("three", "red")]
    system, user = render_final_prompt(final, demos, "query text", space)
    reply = backend.complete(system, user)
    assert parse_label_tags(reply, space, multi=False) == "green"


def test_load_template_dir(tmp_path):
    (tmp_path / "candidate.system.txt").write_text("sys c")
    (tmp_path / "candidate.user.txt").write_text("c {text} comma-separated {labels}")
    (tmp_path / "final.system.txt").write_text("sys f")
    (tmp_path / "final.user.txt").write_text("f {text}")
    loaded = load_template_dir(tmp_path)
    assert loaded[CANDIDATE_ASSIGNMENT].kind == CANDIDATE_ASSIGNMENT
    space = LabelSpace(["a", "b"])
    _, user = render_candidate_prompt(loaded[CANDIDATE_ASSIGNMENT], "T", space)
    assert "c T" in user and "- a\n- b" in user
