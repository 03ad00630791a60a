"""The PEPPHER composition tool (the paper's primary contribution).

Explores the application's components and their implementation variants
through the repository, builds a component-tree IR, performs composition
processing (generic expansion, user-guided narrowing, static composition
with dispatch tables) and generates the low-level code that interacts
with the runtime system: entry/backend wrapper stubs, the single linking
point ``peppher`` module, a Makefile and a build manifest.  Utility mode
generates component skeletons from plain C/C++ declarations.
"""

from repro._lazy import lazy_exports

#: public names, each resolved on first use: the lookahead policy
#: (``repro.composer.lookahead``) loads without the code generator
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.composer.application": ("ComposedApplication",),
        "repro.composer.builder": ("Composer",),
        "repro.composer.compaction": (
            "DecisionTreeDispatch",
            "compact_dispatch_table",
        ),
        "repro.composer.expansion": ("expand_all", "expand_component"),
        "repro.composer.explorer": (
            "bottom_up_order",
            "build_ir",
            "reachable_interfaces",
        ),
        "repro.composer.glue": (
            "RuntimeHolder",
            "invoke_entry",
            "lower_component",
            "make_backend_adapter",
        ),
        "repro.composer.ir": ("ComponentNode", "ComponentTree"),
        "repro.composer.narrowing": ("apply_narrowing",),
        "repro.composer.recipe": ("Recipe",),
        "repro.composer.static_comp": (
            "DispatchEntry",
            "DispatchTable",
            "apply_static_composition",
            "build_dispatch_table",
        ),
        "repro.composer.training": ("TrainingReport", "train_dispatch_table"),
        "repro.composer.utility": (
            "generate_component_files",
            "generate_from_decls",
        ),
    },
)

__all__ = [
    "ComposedApplication",
    "ComponentNode",
    "ComponentTree",
    "Composer",
    "DecisionTreeDispatch",
    "compact_dispatch_table",
    "DispatchEntry",
    "DispatchTable",
    "Recipe",
    "RuntimeHolder",
    "TrainingReport",
    "train_dispatch_table",
    "apply_narrowing",
    "apply_static_composition",
    "bottom_up_order",
    "build_dispatch_table",
    "build_ir",
    "expand_all",
    "expand_component",
    "generate_component_files",
    "generate_from_decls",
    "invoke_entry",
    "lower_component",
    "make_backend_adapter",
    "reachable_interfaces",
]
