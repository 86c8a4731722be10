"""The repository benchmark: the asyncio serving path under four traffic
mixes, end to end and layer by layer.  Entry point: ``perfbench/run.py``;
see ``perfbench/README.md``."""
