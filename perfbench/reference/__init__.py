"""Frozen copy of the search layers of ``asphere`` (``partial``, ``words``,
``presentations`` and ``peiffer``), byte-identical to ``src/asphere`` at
commit 87380369.  ``speed.py`` times a few searches with it to measure how
fast the machine runs this kind of code at the moment.  It must never change:
a change here would move every timing the benchmark reports."""
