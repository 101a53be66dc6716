"""Name tuples that the command line needs before any work starts.

They live apart from the modules that use them, which import numpy, so
that building the CLI's options (and ``--help``, ``--version`` or a usage
error) loads neither numpy nor the kernels. ``functors`` and ``verify``
re-export them.
"""

FAMILIES = ("sl", "ml", "l", "vl", "el", "bk", "bkstar", "generated")

CATEGORIES = ("met", "metinj")
