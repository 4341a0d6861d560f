"""Tests for the separator index and the ranked loop's child expansion."""
