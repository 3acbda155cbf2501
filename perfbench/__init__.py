"""The repository's benchmark; run it with ``python3 perfbench/run.py``."""
