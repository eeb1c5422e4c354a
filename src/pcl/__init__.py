"""pcl: planar Cayley graph toolkit.

Presentation parsing and coset enumeration, Cayley multigraphs and balls
of bundled infinite families, rotation-system embeddings with planarity
certificates, covariance and orientation classes, Babai contraction,
ladder augmentation, GF(2) cycle/cut separation checks, and ends
classification — with a CLI front end (`pcl`) and a bundled verification
corpus.
"""

__version__ = "0.1.0"
