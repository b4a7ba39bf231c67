"""The repo benchmark: five workloads, seven end-to-end metrics, a traced
layer budget.  See README.md; run as ``PYTHONPATH=src python -m bench``.
"""
