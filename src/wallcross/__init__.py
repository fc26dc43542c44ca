"""Exact wall-crossing for stable bases on Hilbert schemes of points.

Subpackage map:

- :mod:`wallcross.scalars` -- exact Laurent/rational scalars in (q, t)
- :mod:`wallcross.linalg` -- field-generic linear algebra, sparse elimination for solves
- :mod:`wallcross.partitions` -- partitions, ribbons, cores, torus weights
- :mod:`wallcross.symfunc` -- symmetric functions and Macdonald machinery
- :mod:`wallcross.fock` -- level-one Fock space, bar involution, canonical bases
- :mod:`wallcross.stable` -- stable-basis tables, wall-crossing, comparisons
- :mod:`wallcross.verify` -- golden-table and conjecture verification reports
- :mod:`wallcross.cache` -- content-addressed artifact cache with atomic writes
- :mod:`wallcross.cli` -- the ``wallcross`` command-line entry point
"""

__version__ = "0.1.0"
