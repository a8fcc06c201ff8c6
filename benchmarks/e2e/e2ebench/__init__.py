"""End-to-end benchmark of the SHIFT-SPLIT serving stack.

Everything here measures ``repro`` from outside: it times calls into the
package's public functions and reads its public counters.  Nothing under
``src/`` is edited or imported privately.  See ``../README.md``.
"""

SCHEMA_VERSION = 1
