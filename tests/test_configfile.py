import pytest

from censim.configfile import Config
from censim.errors import DataError


def write(tmp_path, text):
    path = tmp_path / "test.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_parses_pairs_comments_and_blanks(tmp_path):
    cfg = Config.from_file(write(tmp_path, """
# a comment
t0 = 2002
te=2030
name = hello world
empty =
"""))
    assert cfg.values == {"t0": "2002", "te": "2030", "name": "hello world",
                          "empty": ""}


def test_rejects_duplicate_key(tmp_path):
    with pytest.raises(DataError, match="duplicate"):
        Config.from_file(write(tmp_path, "a=1\na=2\n"))


def test_rejects_line_without_equals(tmp_path):
    with pytest.raises(DataError, match="key=value"):
        Config.from_file(write(tmp_path, "just some words\n"))


def test_rejects_empty_key(tmp_path):
    with pytest.raises(DataError, match="key=value"):
        Config.from_file(write(tmp_path, "=value\n"))


def test_typed_accessors():
    cfg = Config({"n": "7", "x": "2.5", "list": "a, b,c", "flag": "yes"})
    assert cfg.integer("n") == 7
    assert cfg.floating("x") == 2.5
    assert cfg.floating("n") == 7.0
    assert cfg.tokens("list") == ("a", "b", "c")
    assert cfg.has("flag") and not cfg.has("missing")


def test_defaults_and_missing():
    cfg = Config({"n": "7"})
    assert cfg.integer("m", 3) == 3
    assert cfg.text("name", "x") == "x"
    assert cfg.tokens("list", ("q",)) == ("q",)
    with pytest.raises(DataError, match="missing required key 'm'"):
        cfg.integer("m")


def test_bad_numbers_rejected():
    cfg = Config({"n": "seven", "v": "1,two"})
    with pytest.raises(DataError, match="not an integer"):
        cfg.integer("n")
    with pytest.raises(DataError, match="not a number"):
        cfg.floating("n")
    with pytest.raises(DataError, match="list of numbers"):
        cfg.numbers("v")


def test_empty_token_list():
    assert Config({"stages": ""}).tokens("stages") == ()


def test_reject_unread_names_every_key_no_accessor_read():
    cfg = Config({"n": "7", "x": "2.5", "flag": "", "typo": "1"}, source="t.cfg")
    cfg.integer("n")
    cfg.text("missing", "default")
    assert cfg.has("flag") and cfg.has("x")
    with pytest.raises(DataError, match=r"t.cfg: unknown keys \['flag', 'typo', 'x'\]"):
        cfg.reject_unread()
    cfg.numbers("x")
    cfg.tokens("flag")
    cfg.floating("typo")
    cfg.reject_unread()
