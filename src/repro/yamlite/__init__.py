"""Minimal YAML subset parser/dumper for transaction schemas."""

from repro.yamlite.parser import loads, parse_scalar

__all__ = ["loads", "parse_scalar"]
