"""dtnlint: flow-sensitive static analysis for the dtncache tree.

Self-contained, stock-python3, no clang/libclang: a C++ lexer (lexer.py),
a structural parser recovering function/scope/loop nesting and local
declarations (cpp.py), and a rule framework (engine.py) hosting the six
legacy determinism rules (rules_legacy.py) plus five flow-aware rules
(rules_flow.py). See DESIGN.md §11.

Run as `python3 tools/dtnlint` (the directory is executable via
__main__.py).
"""

__version__ = "1.0"
