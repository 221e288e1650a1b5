"""yamlite: the YAML subset the transaction schemas use."""

import pytest

from repro import yamlite
from repro.common.errors import YamlParseError


class TestScalars:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("key: 5", {"key": 5}),
            ("key: -3", {"key": -3}),
            ("key: 2.5", {"key": 2.5}),
            ("key: true", {"key": True}),
            ("key: false", {"key": False}),
            ("key: null", {"key": None}),
            ("key: ~", {"key": None}),
            ("key: plain text", {"key": "plain text"}),
            ('key: "quoted: text"', {"key": "quoted: text"}),
            ("key: 'single # quoted'", {"key": "single # quoted"}),
            ('key: "escaped \\"inner\\""', {"key": 'escaped "inner"'}),
        ],
    )
    def test_scalar_parsing(self, source, expected):
        assert yamlite.loads(source) == expected

    def test_comment_stripping(self):
        assert yamlite.loads("key: 5  # trailing comment") == {"key": 5}

    def test_hash_inside_quotes_kept(self):
        assert yamlite.loads('key: "a # b"') == {"key": "a # b"}


class TestStructures:
    def test_nested_mapping(self):
        source = "outer:\n  inner:\n    leaf: 1"
        assert yamlite.loads(source) == {"outer": {"inner": {"leaf": 1}}}

    def test_block_sequence(self):
        source = "items:\n  - 1\n  - 2\n  - three"
        assert yamlite.loads(source) == {"items": [1, 2, "three"]}

    def test_sequence_of_mappings(self):
        source = "items:\n  - name: a\n    value: 1\n  - name: b\n    value: 2"
        assert yamlite.loads(source) == {
            "items": [{"name": "a", "value": 1}, {"name": "b", "value": 2}]
        }

    def test_flow_sequence(self):
        assert yamlite.loads("key: [1, two, true]") == {"key": [1, "two", True]}

    def test_nested_flow_sequence(self):
        assert yamlite.loads("key: [[1, 2], [3]]") == {"key": [[1, 2], [3]]}

    def test_empty_flow_containers(self):
        assert yamlite.loads("a: []\nb: {}") == {"a": [], "b": {}}

    def test_top_level_sequence(self):
        assert yamlite.loads("- 1\n- 2") == [1, 2]

    def test_empty_document(self):
        assert yamlite.loads("") is None
        assert yamlite.loads("# only a comment\n") is None

    def test_empty_value_is_null(self):
        assert yamlite.loads("key:") == {"key": None}


class TestErrors:
    def test_tabs_rejected(self):
        with pytest.raises(YamlParseError):
            yamlite.loads("key:\n\tvalue: 1")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(YamlParseError):
            yamlite.loads("a: 1\na: 2")

    def test_anchor_rejected(self):
        with pytest.raises(YamlParseError):
            yamlite.loads("key: &anchor value")

    def test_unterminated_quote_rejected(self):
        with pytest.raises(YamlParseError):
            yamlite.loads('key: "unterminated')

    def test_error_carries_line_number(self):
        with pytest.raises(YamlParseError) as info:
            yamlite.loads("a: 1\na: 2")
        assert info.value.line == 2
