"""Tests for the trial execution backends and frames (repro.exec)."""
