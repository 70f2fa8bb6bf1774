"""Model-interface gate: outside ``geometry`` and ``entropy`` no code tests
which model class it holds.

The flows, the stability stage and the trajectory store read the members
both ``FrameModel`` and ``GridModel`` supply (``metric``, ``with_metric``,
``ricci_velocity``, ``step_bound``, ``stage_definite``, ``array_key``,
``store_header``, ``store_rows``), so a new model kind adds a class rather
than a branch in each caller.  The test walks the AST of every module of the
package and fails on an ``isinstance`` that names either class, except in
``geometry`` (which defines them), in ``entropy`` (whose tests each pick
another formula) and in the entry guards of ``flows.run_flow``: an ``if``
of its body that only raises, rejecting what a kind cannot run.
"""

import ast
from pathlib import Path

import solitonlab

PACKAGE = Path(solitonlab.__file__).resolve().parent
KINDS = {"FrameModel", "GridModel"}
OWNERS = {"geometry", "entropy"}
GUARDED = "flows.run_flow"


def _names_a_kind(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id in KINDS
               or isinstance(n, ast.Attribute) and n.attr in KINDS for n in ast.walk(node))


def _entry_guards(func: ast.FunctionDef) -> set:
    """The ids of the nodes in the tests of ``func``'s entry guards: the
    ``if`` statements of its body whose branch only raises."""
    return {id(n) for stmt in func.body
            if isinstance(stmt, ast.If) and not stmt.orelse
            and all(isinstance(s, ast.Raise) for s in stmt.body)
            for n in ast.walk(stmt.test)}


def _kind_tests(module: str, tree: ast.Module) -> list:
    """module.qualname of the function around each ``isinstance`` call of
    ``tree`` that names a model class, outside ``run_flow``'s entry guards."""
    found = []

    def visit(node, qualname, allowed):
        for child in ast.iter_child_nodes(node):
            name, ok = qualname, allowed
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualname}.{child.name}"
                if name == GUARDED:
                    ok = _entry_guards(child)
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and _names_a_kind(child)
                    and id(child) not in ok):
                found.append(qualname)
            visit(child, name, ok)

    visit(tree, module, set())
    return found


def test_no_module_outside_geometry_and_entropy_tests_the_model_kind():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in OWNERS:
            offenders += _kind_tests(path.stem, ast.parse(path.read_text(), str(path)))
    assert offenders == [], (f"isinstance tests of the model kind in {sorted(set(offenders))}: "
                             "read the model's members instead")


def test_the_gate_sees_a_kind_test_and_spares_the_entry_guards():
    """The walk names the function around a kind test, nested or not, and
    passes a guard of ``run_flow`` but not the same test deeper in it."""
    source = '''
def run_flow(model0, background):
    if background is not None and isinstance(model0, FrameModel):
        raise RejectedInputError("no background")
    if isinstance(model0, geometry.GridModel):
        background = None

def step(state):
    def velocity(c):
        return isinstance(state.model, GridModel)
    return isinstance(state, FlowState)
'''
    assert _kind_tests("flows", ast.parse(source)) == ["flows.run_flow", "flows.step.velocity"]
