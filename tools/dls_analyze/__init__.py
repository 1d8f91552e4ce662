"""Whole-program discipline analyzer for the dlsmech tree.

Four checks, all driven by the build's compile_commands.json:

  no-alloc   -- prove DLS_HOT_NOALLOC functions never reach an allocator
  lock-order -- extract every mutex acquisition, fail on ordering cycles
  fp-fence   -- confine FMA/contraction to the sanctioned kernel header
  reach      -- every external function in src/ runs from a main or is
                waived

Run as `python3 tools/dls_analyze --help`. See docs/STATIC_ANALYSIS.md.
"""

__all__ = [
    "compiledb",
    "callgraph",
    "cpplex",
    "noalloc",
    "locks",
    "fpfence",
    "reach",
    "report",
    "waivers",
]
