"""Rate regions for cloud radio access networks whose relays quantize and
forward without knowing the users' codebooks.

Modules; each library name is imported from its module:

* :mod:`ocran.core` - scenarios, subset algebra, rate regions, codebook sampler
* :mod:`ocran.gaussian` - Gaussian MIMO log-det region and matrix lemmas
* :mod:`ocran.discrete` - exact finite-alphabet constraint evaluation
* :mod:`ocran.sumrate` - sum-rate equivalence machinery (extreme points,
  time-shared successive Wyner-Ziv construction)
* :mod:`ocran.optimize` - quantizer search and Monte Carlo validation
* :mod:`ocran.verify` - randomized cross-module property suites
* :mod:`ocran.cli` - command-line interface
"""

__version__ = "0.1.0"
