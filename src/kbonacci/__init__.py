"""Exact k-bonacci numbers, their generating series, and decimal identities.

Import each public name from its defining module, as ``term_fast`` from
``kbonacci.sequence``: ``import kbonacci`` loads no submodule.
"""

__version__ = "0.1.0"
