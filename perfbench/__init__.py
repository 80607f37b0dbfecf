"""End-to-end and per-layer benchmark of heatchern; run ``perfbench/run.py``."""
