"""Z2 invariants of time-reversal symmetric band Hamiltonians.

Subpackages
-----------
linalg      dense kernels: stacked products, Pfaffian, polar factor, phase tracking
models      registry of gapped Bloch Hamiltonian families + sampled-Hamiltonian ingest
bloch       frame fields, the shared gauge pipeline, sewing matrices, Berry connections
eqforms     cubical cochain calculus and the one descent step, `push`, with the
            torus localisation built on it
invariants  the Kane-Mele routes and the cross-validated report
sphere      S3 angular meshes and the three-push pole descent for continuum Dirac models
cli         command line front end (`tki`)
"""

__version__ = "0.1.0"
