"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "preqscore"
RUNTIME_MODULES = sys.stdlib_module_names | {"numpy"}  # pyproject.toml's only runtime dependency


def _integer_powers(source: str) -> list[int]:
    """Lines where ``**`` raises a non-constant to an integral constant (``x ** 2``, ``x **= 3``).

    A constant base (``2**64``) and a computed exponent (``y ** (1.0 / 3.0)``) are allowed.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, exponent = node.left, node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            base, exponent = node.target, node.value
        else:
            continue
        integral = isinstance(exponent, ast.Constant) and type(exponent.value) in (int, float) and float(exponent.value).is_integer()
        if integral and not isinstance(base, ast.Constant):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_power_check_finds_integer_powers():
    source = "a = x ** 2\nb = 2**64\nc = y ** (1.0 / 3.0)\nd = (x + 1) ** 3.0\nx **= 2\ne = x ** 0.5\n"
    assert _integer_powers(source) == [1, 4, 5]


def test_squares_and_cubes_are_products():
    # Float and numpy ``**`` call libm pow, which misrounds some squares by an ulp; a product
    # rounds the same on floats and arrays, so scalar and row scores agree and scale exactly.
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) for line in _integer_powers(path.read_text())]
    assert not found, f"integer powers by ** (write them as products): {', '.join(found)}"


def _foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every absolute import outside the standard library and numpy;
    relative imports (``from .models import ...``) are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.partition(".")[0] not in RUNTIME_MODULES]
    return found


def test_the_import_check_finds_other_packages():
    source = (
        "import math\nimport scipy.stats\nfrom hypothesis import given\nfrom . import models\n"
        "from .scores import _score\nimport numpy as np, pytest\nfrom numpy.linalg import solve\n"
        "def f():\n    import pandas\n"
    )
    assert _foreign_imports(source) == [(2, "scipy.stats"), (3, "hypothesis"), (6, "pytest"), (9, "pandas")]


def test_the_package_imports_only_the_standard_library_and_numpy():
    # scipy, hypothesis and pytest are test dependencies: importing one here would break a
    # plain install and add its import time to every CLI run.
    found = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py")) for line, name in _foreign_imports(path.read_text())]
    assert not found, f"imports outside the standard library and numpy: {', '.join(found)}"


SCORING_MODULES = {"scores.py", "prequential.py"}  # the scorer and the fold


def _kernel_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every score kernel imported or read as a module attribute:
    ``_KERNELS``, ``_BY_DENSITY``, or a name starting ``_density_``, ``_gaussian_`` or
    ``_student_t_``.  ``_density`` itself, which unwraps a predictive, is not a kernel."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in names
            if name in ("_KERNELS", "_BY_DENSITY") or name.startswith(("_density_", "_gaussian_", "_student_t_"))
        ]
    return sorted(found)


def test_the_kernel_check_finds_imported_kernels():
    source = (
        "from .scores import ScoreRule, _KERNELS\nfrom .scores import _density, _density_log_score\n"
        "from preqscore.scores import _gaussian_hyvarinen_score as h\nfrom . import scores\n"
        "k = scores._student_t_hyvarinen_score\nfrom .scores import _score, _row_kernel\nb = scores._BY_DENSITY[0]\n"
    )
    assert _kernel_imports(source) == [
        (1, "_KERNELS"),
        (2, "_density_log_score"),
        (3, "_gaussian_hyvarinen_score"),
        (5, "_student_t_hyvarinen_score"),
        (7, "_BY_DENSITY"),
    ]


def test_only_the_scorer_and_the_fold_import_score_kernels():
    # Every score comes from the prequential fold: a runner that imports a kernel
    # could score outside it again, past its ordering and its non-finite guard.
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in SCORING_MODULES
        for line, name in _kernel_imports(path.read_text())
    ]
    assert not found, f"score kernels imported outside scores.py and prequential.py: {', '.join(found)}"


NUMPY_TRANSCENDENTALS = {"log", "log1p", "log2", "log10", "exp", "expm1", "power"}


def _numpy_transcendentals(source: str) -> list[tuple[int, str]]:
    """(line, name) of every ``np.<f>`` or ``numpy.<f>`` for f in :data:`NUMPY_TRANSCENDENTALS`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in NUMPY_TRANSCENDENTALS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_the_transcendental_check_finds_numpy_logs_exps_and_powers():
    source = (
        "a = np.log(v)\nb = math.log(v) + np.sqrt(v)\nc = numpy.expm1(v)\nf = np.power\n"
        "d = np.log1p(v) * np.exp(v)\ne = x.log(v)\ng = np.log2(np.log10(v))\n"
    )
    assert _numpy_transcendentals(source) == [
        (1, "np.log"),
        (3, "numpy.expm1"),
        (4, "np.power"),
        (5, "np.exp"),
        (5, "np.log1p"),
        (7, "np.log10"),
        (7, "np.log2"),
    ]


def test_row_kernels_round_like_the_math_functions():
    # numpy's log, exp and power round some inputs differently from math's and from
    # libm, so a row that called them would differ in its last bits from the scalar route.
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _numpy_transcendentals(path.read_text())
    ]
    assert not found, f"numpy transcendental functions (take math's per entry): {', '.join(found)}"


def _fsum_calls(source: str) -> list[int]:
    """Lines that call ``math.fsum``, or ``fsum`` by a bare name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "fsum") or (isinstance(f, ast.Name) and f.id == "fsum"):
                lines.append(node.lineno)
    return sorted(lines)


def _classes_defining(source: str, method: str) -> list[str]:
    """Names of the classes whose own body defines ``method``."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and any(isinstance(f, ast.FunctionDef) and f.name == method for f in node.body)
    )


def test_the_fsum_and_predictive_at_checks_find_them():
    source = (
        "import math\nfrom math import fsum\na = math.fsum(v)\nb = fsum(v)\nc = math.fsum\n"
        "class A(PredictiveModel):\n    def predictive_at(self, h):\n        return fsum(h)\n"
        "class B(A):\n    def predictives(self, x):\n        def predictive_at(h):\n            pass\n"
    )
    assert _fsum_calls(source) == [3, 4, 8]
    assert _classes_defining(source, "predictive_at") == ["A"]


def test_models_add_up_a_history_one_way():
    # The flat priors total a history with _prefix_fsums, exact and correctly rounded; fsum's
    # partials overflow on some orders of a sum that fits and raise a bare OverflowError.
    found = _fsum_calls((SRC / "models.py").read_text())
    assert not found, f"math.fsum called in models.py at lines {found}"


# The one class that defines predictive_at, as the last law of a pass over the whole
# history; every kind takes it from there, so no kind's predictive_at strays from its pass.
OWN_PREDICTIVE_AT = {"PredictiveModel"}


def test_other_kinds_take_predictive_at_from_their_pass():
    found = [
        f"{path.name} {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _classes_defining(path.read_text(), "predictive_at")
        if name not in OWN_PREDICTIVE_AT
    ]
    assert not found, f"predictive_at defined beside the pass (let the base class take its last law): {', '.join(found)}"



def _running_sums(source: str, allowed: str | None = None) -> list[int]:
    """Lines of every ``cumsum`` or ufunc ``accumulate`` (``np.cumsum(x)``, ``x.cumsum()``,
    ``np.add.accumulate(x)``) outside the function named ``allowed``."""
    tree = ast.parse(source)
    inside = {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == allowed
        for line in range(node.lineno, node.end_lineno + 1)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("cumsum", "accumulate") and node.lineno not in inside
    )


def test_the_running_sum_check_finds_them():
    source = "def _prefix_sums(x):\n    return np.cumsum(x)\ndef f(x):\n    return x.cumsum() + np.add.accumulate(x)\ny = np.cumsum(x)\n"
    assert _running_sums(source, "_prefix_sums") == [4, 4, 5]
    assert _running_sums(source) == [2, 4, 4, 5]


def test_every_running_sum_is_the_certified_one():
    # models._prefix_sums certifies each prefix correctly rounded; a plain cumsum elsewhere
    # would drift from it, and a trace, a selection and an experiment could disagree on D_n.
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _running_sums(path.read_text(), "_prefix_sums" if path.name == "models.py" else None)
    ]
    assert not found, f"running sums outside models._prefix_sums: {', '.join(found)}"


def _arithmetic_handlers(source: str) -> list[tuple[int, str]]:
    """(line, innermost enclosing function or "" at module level) of every ``except`` clause
    that catches ``ArithmeticError``, alone or in a tuple."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            if any(isinstance(t, ast.Name) and t.id == "ArithmeticError" for t in ast.walk(node.type)):
                around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                found.append((node.lineno, max(around, key=lambda f: f.lineno).name if around else ""))
    return sorted(found)


def test_the_handler_check_finds_arithmetic_handlers():
    source = (
        "def _score(x):\n    try:\n        f(x)\n    except ArithmeticError:\n        pass\n"
        "def fold(x):\n    def step():\n        try:\n            f(x)\n        except (ValueError, ArithmeticError) as e:\n"
        "            raise\n    try:\n        f(x)\n    except OverflowError:\n        pass\n"
        "try:\n    f(1)\nexcept ArithmeticError:\n    pass\n"
    )
    assert _arithmetic_handlers(source) == [(4, "_score"), (10, "step"), (18, "")]


def test_one_scorer_turns_arithmetic_failures_into_errors():
    # scores._score raises NonFiniteValue for an arithmetic failure on every route; a second
    # handler, in the fold or a runner, would be a second checked scorer free to drift from it.
    found = [(path.name, name) for path in sorted(SRC.glob("*.py")) for _, name in _arithmetic_handlers(path.read_text())]
    assert found == [("scores.py", "_score")], f"ArithmeticError handlers outside scores._score: {found}"
