"""Contract compatibility checking over extended interface automata.

Model constituent-system contracts as interface automata whose transitions
carry named pre/postconditions over typed variables, then verify pairwise
compatibility: composability of the alphabets, the synchronized product,
illegal states (unreceivable shared outputs, or guards equivalent to false),
the backward bad-state closure under a helpful environment, and pruning.
"""
from types import ModuleType as _ModuleType

from .automata import (
    ActionClass,
    ActionLabel,
    ClauseConflict,
    ComposabilityReport,
    InterfaceAutomaton,
    NotComposableError,
    ProductError,
    ProductResult,
    Transition,
    composable,
    empty_automaton,
    product,
    qualify_hidden,
    shared,
    step_faults,
    validate,
)
from .docformat import (
    ContractDocument,
    DocumentMeta,
    document_diagnostics,
    document_from_automaton,
    export_dot,
    parse_constraint,
    parse_document,
    print_document,
)
from .domains import (
    BoolDomain,
    Domain,
    EnumDomain,
    IntRangeDomain,
    MapDomain,
    OpaqueDomain,
    RecordDomain,
    SeqDomain,
    VariableDecl,
)
from .evaluate import (
    EvalError,
    MissingVariable,
    UndefinedApplication,
    Valuation,
    simplify,
)
from .expr_parse import parse_expression
from .exprs import (
    Apply,
    BinOp,
    BoolLit,
    Chain,
    ConstraintContext,
    ConstraintKind,
    EnumLit,
    Expr,
    FieldAccess,
    IntLit,
    Membership,
    MethodCall,
    NamedConstraint,
    Not,
    ParamDecl,
    SetLit,
    SortError,
    UnknownVariable,
    VarRef,
    to_text,
    variable_refs,
    walk,
)
from .falsity import FalsityResult, Verdict, constraint_falsity, default_budget
from .fixtures import fixture_text, load_fixture
from .lexer import ParseError
from .verifier import (
    AllGuardsFalse,
    CompatOptions,
    CompatReport,
    CompatVerdict,
    IllegalStateSet,
    IncompatibilityCause,
    InvalidAutomaton,
    OpCounter,
    Trace,
    UnreceivedOutput,
    bad_states,
    check_compatibility,
    illegal_states,
    prune,
    report_to_dict,
    report_to_json,
    shortest_witness,
)

__version__ = "0.1.0"

# every name imported above, and no submodule
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType))
