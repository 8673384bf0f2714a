"""Contact metric manifold models built from left-invariant orthonormal frames.

A model is a Lie algebra bracket table c[i][j][k] (so [e_i, e_j] =
sum_k c[i][j][k] e_k), a distinguished Reeb index with eta the dual coframe
vector, and a phi matrix acting by phi(e_j) = sum_i phi[i][j] e_i.  The frame
is declared orthonormal, so the metric is the identity and every curvature
quantity is a finite exact-rational computation:

* Levi-Civita connection through the Koszul formula, which for constant
  structure coefficients reduces to
  gamma[i][j][k] = (c[i][j][k] - c[j][k][i] + c[k][i][j]) / 2;
* Riemann tensor from R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
  nabla_[X,Y] Z as matrix products: with Gamma_i = gamma[i] (the matrix of
  nabla_{e_i}), R(e_i,e_j) = Gamma_j Gamma_i - Gamma_i Gamma_j
  - sum_m c[i][j][m] Gamma_m; Ricci as S(X,Y) = sum_i g(R(e_i,X)Y, e_i);
* the h-operator, half the Lie derivative of phi along the Reeb field, as the
  commutator h = [ad_xi, phi] / 2, with ad_i the matrix of [e_i, .]; the
  Jacobi identity as "ad is a homomorphism", ad([e_i,e_j]) = [ad_i, ad_j].

All of it runs on the dense-tensor primitives below, which t_tensor shares.

Sign conventions (documented because the literature is split):

* phi^2 = -Id + eta (x) xi and g(phi X, phi Y) = g(X,Y) - eta(X) eta(Y);
* the contact condition is checked as d(eta) = Phi with Phi(X,Y) = g(X, phi Y)
  and d(eta)(X,Y) = (X eta(Y) - Y eta(X) - eta([X,Y])) / 2, which on a
  left-invariant frame is d(eta)(e_i,e_j) = -eta([e_i,e_j]) / 2.  Under these
  choices the shipped 3-dimensional family satisfies every axiom exactly,
  including nabla_X xi = -phi X - phi h X.

Indices are 0-based in code; the plain-text model file format is 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .scalar_algebra import RationalLike, _frac_str, as_rational


class InvalidModel(Exception):
    """The bracket table is not a Lie algebra (antisymmetry or Jacobi fails),
    or curvature data passed with a model contradict it."""


class DegenerateFit(Exception):
    """The nullity fit cannot attribute a mu-component to the h-operator."""


class ModelFormatError(ValueError):
    """A model file could not be parsed."""


@dataclass(frozen=True)
class FrameModel:
    """An odd-dimensional left-invariant frame model.

    dim        frame size 2n+1;
    structure  bracket table, structure[i][j][k] is the e_k coefficient of
               [e_i, e_j];
    xi_index   0-based index of the Reeb vector in the frame;
    phi        matrix of phi, columns are images of the frame vectors.
    """

    dim: int
    structure: tuple
    xi_index: int
    phi: tuple

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    def eta(self, i: int) -> Fraction:
        return Fraction(1 if i == self.xi_index else 0)


@dataclass(frozen=True)
class CurvatureData:
    """All curvature objects of a model, exact.

    gamma[i][j][k] = g(nabla_{e_i} e_j, e_k); riemann[i][j][k][l] =
    g(R(e_i,e_j)e_k, e_l); ricci[j][k] = S(e_j,e_k), which in an
    orthonormal frame is also the matrix of the Ricci operator Q; scalar is
    the ricci trace; h is the matrix of the h-operator.
    """

    gamma: tuple
    riemann: tuple
    ricci: tuple
    scalar: Fraction
    h: tuple


@dataclass(frozen=True)
class NullityFit:
    """Best exact (kappa, mu) for R(X,Y)xi = kappa(eta(Y)X - eta(X)Y)
    + mu(eta(Y)hX - eta(X)hY); exact is True iff the residual is zero."""

    kappa: Fraction
    mu: Fraction
    exact: bool
    max_residual: Fraction


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple:
        return tuple(check for check in self.checks if not check.passed)


def _zeros(dim: int) -> list:
    return [Fraction(0)] * dim


# ---------------------------------------------------------------------------
# dense-tensor primitives: nested tuples of Fractions, shared with t_tensor

_ZERO_Q = Fraction(0)


def _lincomb(weights, parts):
    """sum_p weights[p] * parts[p] over dense tensors of one shape, or scalars."""
    if not isinstance(parts[0], (tuple, list)):
        return sum((w * x for w, x in zip(weights, parts) if w and x), _ZERO_Q)
    # an all-zero row still has to yield a zero tensor of the parts' shape
    live = [(w, part) for w, part in zip(weights, parts) if w] or [(0, parts[0])]
    weights, parts = zip(*live)
    return tuple(_lincomb(weights, column) for column in zip(*parts))


def _act(matrix, tensor, slot: int):
    """out[..x..] = sum_p matrix[x][p] * tensor[..p..], x and p in the given
    (0-based) slot of a dense tensor.  On slot 0 of a matrix this is the
    matrix product ``matrix . tensor``."""
    if slot:
        return tuple(_act(matrix, sub, slot - 1) for sub in tensor)
    return tuple(_lincomb(row, tensor) for row in matrix)


def _transpose(matrix) -> tuple:
    return tuple(zip(*matrix))


def _max_abs(tensor) -> Fraction:
    if isinstance(tensor, (tuple, list)):
        return max((_max_abs(sub) for sub in tensor), default=_ZERO_Q)
    return abs(tensor)


def _freeze(rows) -> tuple:
    if isinstance(rows, (list, tuple)) and rows and isinstance(rows[0], (list, tuple)):
        return tuple(_freeze(r) for r in rows)
    if isinstance(rows, (list, tuple)):
        return tuple(rows)
    return rows


def build_model(
    dim: int,
    brackets: Iterable[tuple],
    xi_index: int,
    phi: Sequence[Sequence[RationalLike]],
) -> FrameModel:
    """Assemble a model from sparse brackets (i, j, k, value), 0-based.

    The (j, i, k) entry is filled by antisymmetry; giving both with
    inconsistent values is rejected.
    """
    if dim < 3 or dim % 2 == 0:
        raise ModelFormatError(f"dimension must be odd and >= 3, got {dim}")
    if not 0 <= xi_index < dim:
        raise ModelFormatError(f"xi index {xi_index} out of range for dim {dim}")
    table = [[_zeros(dim) for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for i, j, k, value in brackets:
        value = as_rational(value)
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ModelFormatError(f"bracket index ({i},{j},{k}) out of range")
        if i == j and value:
            raise ModelFormatError(f"[e_{i+1}, e_{i+1}] must vanish")
        if (i, j, k) in seen:
            raise ModelFormatError(f"duplicate bracket entry ({i+1},{j+1},{k+1})")
        seen.add((i, j, k))
        if (j, i, k) in seen and table[j][i][k] != -value:
            raise ModelFormatError(
                f"entries ({i+1},{j+1},{k+1}) and ({j+1},{i+1},{k+1}) are not antisymmetric"
            )
        table[i][j][k] = value
        if (j, i, k) not in seen:
            table[j][i][k] = -value
    phi_rows = [[as_rational(x) for x in row] for row in phi]
    if len(phi_rows) != dim or any(len(row) != dim for row in phi_rows):
        raise ModelFormatError("phi matrix must be dim x dim")
    return FrameModel(dim, _freeze(table), xi_index, _freeze(phi_rows))


def validate_structure(model: FrameModel) -> None:
    """Check bracket antisymmetry and the Jacobi identity exactly.

    Jacobi is checked as ad([e_i,e_j]) = [ad_i, ad_j]: column k of the
    difference is the Jacobi sum on (e_i, e_j, e_k), reported for the first
    failing triple i < j < k in lexicographic order."""
    dim = model.dim
    c = model.structure
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if c[i][j][k] != -c[j][i][k]:
                    raise InvalidModel(
                        f"antisymmetry fails at c[{i+1}][{j+1}][{k+1}]"
                    )
    ad = tuple(_transpose(block) for block in c)
    for i in range(dim):
        for j in range(i + 1, dim):
            products = (_act(ad[i], ad[j], 0), _act(ad[j], ad[i], 0))
            defect = _lincomb(c[i][j] + (-1, 1), ad + products)
            for k in range(j + 1, dim):
                if any(row[k] for row in defect):
                    raise InvalidModel(
                        f"Jacobi identity fails on (e_{i+1}, e_{j+1}, e_{k+1})"
                    )


def levi_civita(model: FrameModel) -> tuple:
    """Connection coefficients gamma[i][j][k] = g(nabla_{e_i} e_j, e_k)."""
    validate_structure(model)
    return _connection(model)


def _connection(model: FrameModel) -> tuple:
    dim = model.dim
    c = model.structure
    gamma = [
        [
            [(c[i][j][k] - c[j][k][i] + c[k][i][j]) / 2 for k in range(dim)]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return _freeze(gamma)


def h_tensor(model: FrameModel) -> tuple:
    """Matrix of h = (Lie derivative of phi along xi) / 2."""
    validate_structure(model)
    return _h_operator(model)


def _h_operator(model: FrameModel) -> tuple:
    # (L_xi phi) e = [xi, phi e] - phi [xi, e], so 2h = ad_xi phi - phi ad_xi
    ad_xi = _transpose(model.structure[model.xi_index])
    phi = model.phi
    half = Fraction(1, 2)
    return _lincomb((half, -half), (_act(ad_xi, phi, 0), _act(phi, ad_xi, 0)))


def curvature(model: FrameModel) -> CurvatureData:
    """All curvature data of the model; exact rational throughout."""
    validate_structure(model)
    gamma = _connection(model)
    dim = model.dim
    c = model.structure
    # gamma[i] is the matrix of nabla_{e_i} acting on row vectors, so
    # R(e_i,e_j) = Gamma_j Gamma_i - Gamma_i Gamma_j - sum_m c[i][j][m] Gamma_m
    products = tuple(tuple(_act(left, right, 0) for right in gamma) for left in gamma)
    riemann = tuple(
        tuple(
            _lincomb((1, -1, *(-x for x in c[i][j])), (products[j][i], products[i][j], *gamma))
            for j in range(dim)
        )
        for i in range(dim)
    )
    ricci = tuple(
        tuple(sum(riemann[i][j][k][i] for i in range(dim)) for k in range(dim))
        for j in range(dim)
    )
    scalar = sum(ricci[i][i] for i in range(dim))
    return CurvatureData(
        gamma=gamma,
        riemann=riemann,
        ricci=ricci,
        scalar=scalar,
        h=_h_operator(model),
    )


def contact_audit(model: FrameModel) -> AuditReport:
    """Exact per-axiom audit of the contact metric structure.

    Checks, in order: bracket structure, phi^2 = -Id + eta (x) xi,
    metric compatibility, the contact condition d(eta) = Phi, and
    nabla_X xi = -phi X - phi h X.  Failures are report entries, never
    exceptions; each names the first failing component in row-major order.

    phi(xi) = 0 and eta o phi = 0 need no checks of their own: phi^2 =
    -Id + eta (x) xi forces both.  With v = phi xi, phi v = phi^2 xi = 0 and
    phi^2 v = -v + eta(v) xi = 0, so v = eta(v) xi and phi v = eta(v)^2 xi
    = 0 give v = 0; the row case is the same argument transposed.
    """
    dim, xi, phi = model.dim, model.xi_index, model.phi
    c = model.structure
    checks = []

    def matrix_check(name, got, want, detail):
        for i, (got_row, want_row) in enumerate(zip(got, want)):
            for j, (x, y) in enumerate(zip(got_row, want_row)):
                if x != y:
                    return AuditCheck(name, False, detail.format(i + 1, j + 1, x, y))
        return AuditCheck(name, True)

    try:
        validate_structure(model)
        checks.append(AuditCheck("bracket_structure", True))
        structural_ok = True
    except InvalidModel as exc:
        checks.append(AuditCheck("bracket_structure", False, str(exc)))
        structural_ok = False

    # phi^2 = -Id + eta (x) xi = -P and phi^T phi = Id - eta (x) eta = P, with
    # P the projector onto the contact distribution
    onto_d = tuple(tuple(Fraction(i == j != xi) for j in range(dim)) for i in range(dim))
    minus_onto_d = _lincomb((-1,), (onto_d,))
    component = "component ({},{}): {} != {}"
    checks.append(matrix_check("phi_square", _act(phi, phi, 0), minus_onto_d, component))
    checks.append(
        matrix_check("metric_compatibility", _act(_transpose(phi), phi, 0), onto_d, component)
    )
    # d(eta)(e_i,e_j) = -eta([e_i,e_j])/2 must equal g(e_i, phi e_j)
    d_eta = tuple(tuple(-bracket[xi] / 2 for bracket in block) for block in c)
    checks.append(matrix_check("contact_condition", d_eta, phi, "d(eta)(e_{},e_{}) = {} != {}"))

    # nabla_X xi = -phi X - phi h X
    if structural_ok:
        nabla_xi = tuple(block[xi] for block in _connection(model))
        phi_h = _act(phi, _h_operator(model), 0)
        want = _transpose(_lincomb((-1, -1), (phi, phi_h)))
        detail = "nabla_(e_{}) xi component {}: {} != {}"
        checks.append(matrix_check("reeb_derivative", nabla_xi, want, detail))
    else:
        checks.append(
            AuditCheck("reeb_derivative", False, "skipped: invalid bracket structure")
        )

    return AuditReport(tuple(checks))


def nullity_residual(
    model: FrameModel, curv: CurvatureData, kappa: Fraction, mu: Fraction
) -> Fraction:
    """Max |component| of R(e_i,e_j)xi - kappa(...) - mu(...) over the frame."""
    dim, xi = model.dim, model.xi_index
    h = curv.h
    worst = Fraction(0)
    for i in range(dim):
        for j in range(dim):
            for l in range(dim):
                value = curv.riemann[i][j][xi][l]
                value -= kappa * (
                    model.eta(j) * Fraction(i == l) - model.eta(i) * Fraction(j == l)
                )
                value -= mu * (model.eta(j) * h[l][i] - model.eta(i) * h[l][j])
                worst = max(worst, abs(value))
    return worst


def nullity_fit(model: FrameModel, curv: Optional[CurvatureData] = None) -> NullityFit:
    """Fit (kappa, mu) from the R(e_i, xi) xi block, then verify globally.

    The fit is the exact least-squares solution of the linear system the
    block imposes; in the orthonormal frame its normal matrix is diagonal
    (trace h = 0), so kappa and mu decouple.  For exact fits the Ricci
    contractions S(X, xi) = 2 n kappa eta(X) are verified as well.
    """
    if curv is None:
        curv = curvature(model)
    dim, xi = model.dim, model.xi_index
    h = curv.h
    horizontal = [i for i in range(dim) if i != xi]
    # R(e_i, xi) xi = kappa e_i + mu h e_i for horizontal i
    kappa = sum(curv.riemann[i][xi][xi][i] for i in horizontal) / Fraction(
        len(horizontal)
    )
    h_norm = sum(h[l][i] ** 2 for i in horizontal for l in range(dim))
    if h_norm:
        mu = (
            sum(
                curv.riemann[i][xi][xi][l] * h[l][i]
                for i in horizontal
                for l in range(dim)
            )
            / h_norm
        )
    else:
        if any(h[l][i] for i in range(dim) for l in range(dim)):
            raise DegenerateFit("h is nonzero but carries no frame norm")
        mu = Fraction(0)
    residual = nullity_residual(model, curv, kappa, mu)
    exact = residual == 0
    if exact:
        # S(e_i, xi) = 2 n kappa eta(e_i); i = xi checks S(xi, xi) = 2 n kappa
        for i in range(dim):
            want = 2 * kappa * model.n * model.eta(i)
            if curv.ricci[i][xi] != want:
                raise InvalidModel(
                    f"Ricci check fails: S(e_{i+1}, xi) = {curv.ricci[i][xi]} != {want}"
                )
    return NullityFit(kappa=kappa, mu=mu, exact=exact, max_residual=residual)


def nk_lie_group_3d(lam: RationalLike) -> FrameModel:
    """The 3-dimensional left-invariant family with kappa = 1 - lambda^2.

    Brackets [e1,e2] = 2 e3, [e2,e3] = (1-lambda) e1, [e3,e1] = (1+lambda) e2,
    Reeb vector e3, phi(e1) = e2, phi(e2) = -e1.  lambda = 0 is the Sasakian
    member (h = 0); lambda = +-1 degenerates to kappa = 0.
    """
    lam = as_rational(lam)
    one = Fraction(1)
    return build_model(
        3,
        [
            (0, 1, 2, Fraction(2)),
            (1, 2, 0, one - lam),
            (2, 0, 1, one + lam),
        ],
        xi_index=2,
        phi=[[0, -1, 0], [1, 0, 0], [0, 0, 0]],
    )


# ---------------------------------------------------------------------------
# plain-text model files (1-based indices)


def render_model(model: FrameModel) -> str:
    """Serialize to the plain-text format accepted by parse_model."""
    lines = [f"dim {model.dim}", f"xi {model.xi_index + 1}"]
    for row in model.phi:
        lines.append("phi " + " ".join(_frac_str(x) for x in row))
    for i in range(model.dim):
        for j in range(i + 1, model.dim):
            for k in range(model.dim):
                value = model.structure[i][j][k]
                if value:
                    lines.append(f"c {i+1} {j+1} {k+1} : {_frac_str(value)}")
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> FrameModel:
    """Parse the plain-text model format.

    Lines: ``dim D``, ``xi I``, one ``phi r1 ... rD`` per matrix row, and
    ``c i j k : p/q`` for each nonzero structure constant (1-based).  Blank
    lines and ``#`` comments are ignored.  Non-antisymmetric input and pairs
    given twice inconsistently are rejected.
    """
    dim = None
    xi = None
    phi_rows = []
    brackets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "dim":
                dim = int(parts[1])
            elif parts[0] == "xi":
                xi = int(parts[1]) - 1
            elif parts[0] == "phi":
                phi_rows.append([as_rational(x) for x in parts[1:]])
            elif parts[0] == "c":
                if len(parts) != 6 or parts[4] != ":":
                    raise ModelFormatError("expected 'c i j k : value'")
                i, j, k = int(parts[1]) - 1, int(parts[2]) - 1, int(parts[3]) - 1
                brackets.append((i, j, k, as_rational(parts[5])))
            else:
                raise ModelFormatError(f"unknown directive {parts[0]!r}")
        except (ValueError, IndexError) as exc:
            raise ModelFormatError(f"line {lineno}: {exc}") from exc
    if dim is None or xi is None:
        raise ModelFormatError("model file must declare dim and xi")
    if len(phi_rows) != dim:
        raise ModelFormatError(f"expected {dim} phi rows, found {len(phi_rows)}")
    return build_model(dim, brackets, xi, phi_rows)
