"""Name tuples that the command line needs before any work starts.

They live apart from the modules that use them, so that building the
CLI's options (and ``--help``, ``--version`` or a usage error) loads none
of the kernels. ``functors`` and ``verify`` re-export them.
"""

FAMILIES = ("sl", "ml", "l", "vl", "el", "bk", "bkstar", "generated")

CATEGORIES = ("met", "metinj")
