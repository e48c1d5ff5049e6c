"""Decay rates of mesoscopic emitters near metal structures.

The package computes normalized spontaneous-emission rates of an
extended (mesoscopic) emitter whose light-matter coupling carries a
first-moment correction on top of the usual dipole term, for two
geometries: a planar metal mirror under a high-index host, and a thin
metal nanowire supporting a single guided plasmon mode.

All rates are dimensionless, normalized to the emission rate of the
same dipole in the unbounded host. Lengths in nm, wavevectors in
rad/nm, velocities in nm/fs.
"""

__version__ = "0.1.0"
