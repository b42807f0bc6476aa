"""Pytest set-up for the benchmark's own tests: ``python3 -m pytest perfbench``."""

import run

run.bootstrap()
