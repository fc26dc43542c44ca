"""Exact wall-crossing for stable bases on Hilbert schemes of points.

Subpackage map:

- :mod:`wallcross.scalars` -- exact Laurent/rational scalars in (q, t)
- :mod:`wallcross.linalg` -- field-generic linear algebra, solves by substitution alone
- :mod:`wallcross.partitions` -- partitions, ribbons, cores, torus weights
- :mod:`wallcross.symfunc` -- symmetric functions and Macdonald machinery
- :mod:`wallcross.fock` -- level-one Fock space and its bar involution
- :mod:`wallcross.stable` -- stable-basis tables, wall-crossing, comparisons
- :mod:`wallcross.verify` -- the conjecture check: crossings against bar matrices
- :mod:`wallcross.reports` -- golden tables, positivity, characters, printed and
  canonical bases, LaTeX; imported only by the commands that use it
- :mod:`wallcross.cache` -- content-addressed artifact cache with atomic writes
- :mod:`wallcross.cli` -- the ``wallcross`` command-line entry point
"""

__version__ = "0.1.0"
