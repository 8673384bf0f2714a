"""Contact metric manifold models built from left-invariant orthonormal frames.

Every tensor here, and in t_tensor, is sparse: a dict from index tuple to
nonzero entry, so work follows the nonzero entries, and entries need only
+, *, unary - and a truth test (Fractions or RationalExprs).  A component
is read as ``tensor.get(key, 0)``, e.g. ``curv.riemann.get((0, 2, 2, 0), 0)``
for g(R(e_1,e_3)e_3, e_1).

A model is a Lie algebra bracket table c[i, j, k] (so [e_i, e_j] =
sum_k c[i, j, k] e_k), a distinguished Reeb index with eta the dual coframe
vector, and a phi matrix acting by phi(e_j) = sum_i phi[i, j] e_i.  The frame
is declared orthonormal, so the metric is the identity and every curvature
quantity is a finite exact-rational computation:

* Levi-Civita connection through the Koszul formula, which for constant
  structure coefficients reduces to
  gamma[i, j, k] = (c[i, j, k] - c[j, k, i] + c[k, i, j]) / 2;
* Riemann tensor from R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
  nabla_[X,Y] Z as matrix products: with Gamma_i the matrix of nabla_{e_i},
  R(e_i,e_j) = Gamma_j Gamma_i - Gamma_i Gamma_j - sum_m c[i, j, m] Gamma_m;
  Ricci as S(X,Y) = sum_i g(R(e_i,X)Y, e_i);
* the h-operator, half the Lie derivative of phi along the Reeb field, as the
  commutator h = [ad_xi, phi] / 2, with ad_i the matrix of [e_i, .]; the
  Jacobi identity as "ad is a homomorphism", ad([e_i,e_j]) = [ad_i, ad_j].

All of it runs on the contraction kernel below, shared with t_tensor.

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

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .scalar_algebra import (
    InputError, RationalLike, Record, as_int, as_rational, numbered_lines)

MAX_DIM = 15  # the largest frame a model file may declare


class InvalidModel(InputError):
    """The bracket table is not a Lie algebra (antisymmetry or Jacobi fails),
    or a curvature structure's Ricci contraction contradicts its exact
    nullity fit."""


class DegenerateFit(InputError):
    """The nullity fit cannot attribute a mu-component to the h-operator."""


class ModelFormatError(InputError):
    """A model file could not be parsed."""


class FrameModel(Record):
    """An odd-dimensional left-invariant frame model, 0-based.

    dim        frame size 2n+1;
    structure  bracket table, structure[i, j, k] is the e_k coefficient of
               [e_i, e_j], both orders of each pair present;
    xi_index   index of the Reeb vector in the frame;
    phi        matrix of phi, phi[i, j] is the e_i coefficient of phi(e_j).
    """

    dim: int
    structure: dict
    xi_index: int
    phi: dict

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    def eta(self, i: int) -> Fraction:
        return Fraction(1 if i == self.xi_index else 0)


# ---------------------------------------------------------------------------
# the sparse contraction kernel: {index tuple: nonzero entry}, shared with
# t_tensor

_ZERO_Q = Fraction(0)


def _collect(pairs) -> dict:
    """Sum the (key, term) pairs per key; zero sums are dropped."""
    out = {}
    for key, term in pairs:
        out[key] = out[key] + term if key in out else term
    return {key: value for key, value in out.items() if value}


def _lincomb(weights, parts) -> dict:
    """sum_p weights[p] * parts[p] over tensors of one rank."""
    return _collect((k, w * v) for w, part in zip(weights, parts) if w for k, v in part.items())


def _act(m: dict, tensor: dict, slot: int) -> dict:
    """Contract the last index of m with one (0-based) slot of the tensor, m's
    other indices taking that slot's place: for a matrix, out[..x..] = sum_p
    m[x, p] tensor[..p..], on slot 0 of a matrix the product ``m . tensor``."""
    columns = {}
    for key, value in m.items():
        columns.setdefault(key[-1], []).append((key[:-1], value))
    return _collect(
        (key[:slot] + head + key[slot + 1:], weight * value)
        for key, value in tensor.items()
        for head, weight in columns.get(key[slot], ())
    )


def _permute(tensor: dict, order: tuple) -> dict:
    """out[key[order[0]], key[order[1]], ...] = tensor[key]; (1, 0) transposes."""
    return {tuple(key[o] for o in order): value for key, value in tensor.items()}


def _max_abs(tensor: dict) -> Fraction:
    return max(map(abs, tensor.values()), default=_ZERO_Q)


# ---------------------------------------------------------------------------
# models


class CurvatureData(Record):
    """The curvature structure at a point, exact, as sparse tensors: all that
    the T layer and the nullity fit read.  A model gives one through
    ``curvature``; a tensor given by formula can be one directly.

    The frame is orthonormal and xi_index is the Reeb vector's index in it;
    phi[i, j] is the matrix of phi; riemann[i, j, k, l] =
    g(R(e_i,e_j)e_k, e_l); h is the matrix of the h-operator.  The
    contraction ricci[j, k] = S(e_j,e_k), also the matrix of the Ricci
    operator Q, and its trace scalar are built on first use.
    """

    dim: int
    xi_index: int
    phi: dict
    riemann: dict
    h: dict

    ricci = cached_property(lambda self: _collect(
        ((j, k), v) for (i, j, k, l), v in self.riemann.items() if i == l))
    scalar = cached_property(
        lambda self: sum((v for (j, k), v in self.ricci.items() if j == k), _ZERO_Q))


class NullityFit(Record):
    """Best exact (kappa, mu) for R(X,Y)xi = kappa(eta(Y)X - eta(X)Y)
    + mu(eta(Y)hX - eta(X)hY); exact is True iff the residual is zero."""

    kappa: Fraction
    mu: Fraction
    exact: bool
    max_residual: Fraction


class AuditCheck(Record):
    name: str
    passed: bool
    detail: str = ""


class AuditReport(Record):
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple:
        return tuple(check for check in self.checks if not check.passed)


def build_model(
    dim: int,
    brackets: Iterable[tuple],
    xi_index: int,
    phi: Sequence[Sequence[RationalLike]],
) -> FrameModel:
    """Assemble a model from brackets (i, j, k, value) and phi rows, 0-based;
    messages name frame vectors 1-based, as model files do.

    The (j, i, k) entry is filled by antisymmetry; giving both with
    inconsistent values is rejected.  Zero entries are dropped.
    """
    if dim < 3 or dim % 2 == 0:
        raise ModelFormatError(f"dimension must be odd and >= 3, got {dim}")
    if not 0 <= xi_index < dim:
        raise ModelFormatError(f"xi index {xi_index + 1} out of range for dim {dim}")
    given = {}
    for i, j, k, value in brackets:
        value = as_rational(value)
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ModelFormatError(f"bracket index ({i+1},{j+1},{k+1}) out of range")
        if i == j and value:
            raise ModelFormatError(f"[e_{i+1}, e_{i+1}] must vanish")
        if (i, j, k) in given:
            raise ModelFormatError(f"duplicate bracket entry ({i+1},{j+1},{k+1})")
        if (j, i, k) in given and given[(j, i, k)] != -value:
            raise ModelFormatError(
                f"entries ({i+1},{j+1},{k+1}) and ({j+1},{i+1},{k+1}) are not antisymmetric"
            )
        given[(i, j, k)] = value
    table = {(j, i, k): -value for (i, j, k), value in given.items() if value}
    table.update((key, value) for key, value in given.items() if value)
    if len(phi) != dim or any(len(row) != dim for row in phi):
        raise ModelFormatError("phi matrix must be dim x dim")
    rows = (map(as_rational, row) for row in phi)
    matrix = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}
    return FrameModel(dim, table, xi_index, matrix)


def validate_structure(model: FrameModel) -> None:
    """Check bracket antisymmetry and the Jacobi identity exactly.

    Jacobi is checked as ad([e_i,e_j]) = [ad_i, ad_j]: column k of the
    difference is the Jacobi sum on (e_i, e_j, e_k), reported for the first
    failing triple i < j < k in lexicographic order."""
    c = model.structure
    broken = [key for key, value in c.items() if c.get((key[1], key[0], key[2])) != -value]
    if broken:
        i, j, k = min(min(key, (key[1], key[0], key[2])) for key in broken)
        raise InvalidModel(f"antisymmetry fails at c[{i+1}][{j+1}][{k+1}]")
    ad = _permute(c, (0, 2, 1))  # ad[i, x, p] = c[i, p, x], the matrix of [e_i, .]
    products = _act(ad, ad, 1)  # [i, j] -> ad_j ad_i
    defect = _lincomb((1, -1, 1), (_act(c, ad, 0), _permute(products, (1, 0, 2, 3)), products))
    failing = [(i, j, k) for i, j, _, k in defect if i < j < k]
    if failing:
        i, j, k = min(failing)
        raise InvalidModel(f"Jacobi identity fails on (e_{i+1}, e_{j+1}, e_{k+1})")


def levi_civita(model: FrameModel) -> dict:
    """Connection coefficients gamma[i, j, k] = g(nabla_{e_i} e_j, e_k)."""
    validate_structure(model)
    return _connection(model.structure)


def _connection(c: dict) -> dict:
    half = Fraction(1, 2)
    # c[i, j, k] - c[j, k, i] + c[k, i, j], halved
    return _lincomb((half, -half, half), (c, _permute(c, (2, 0, 1)), _permute(c, (1, 2, 0))))


def _riemann(c: dict, gamma: dict) -> dict:
    # gamma[i, ., .] is the matrix of nabla_{e_i} acting on row vectors, so
    # R(e_i,e_j) = Gamma_j Gamma_i - Gamma_i Gamma_j - sum_m c[i, j, m] Gamma_m
    products = _act(gamma, gamma, 1)  # [i, j] -> Gamma_j Gamma_i
    return _lincomb((1, -1, -1), (products, _permute(products, (1, 0, 2, 3)), _act(c, gamma, 0)))


def _h_operator(model: FrameModel) -> dict:
    # h = (Lie derivative of phi along xi) / 2, and
    # (L_xi phi) e = [xi, phi e] - phi [xi, e], so 2h = ad_xi phi - phi ad_xi
    xi, phi = model.xi_index, model.phi
    ad_xi = {(x, p): v for (i, p, x), v in model.structure.items() if i == xi}
    return _lincomb((Fraction(1, 2), Fraction(-1, 2)), (_act(ad_xi, phi, 0), _act(phi, ad_xi, 0)))


def curvature(model: FrameModel) -> CurvatureData:
    """The model's curvature structure; exact rational throughout."""
    validate_structure(model)
    c = model.structure
    riemann = _riemann(c, _connection(c))
    return CurvatureData(model.dim, model.xi_index, model.phi, riemann, _h_operator(model))


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
    dim, xi = model.dim, model.xi_index
    c, phi = model.structure, model.phi
    checks = []

    def matrix_check(name, got, want, detail):
        differ = _lincomb((1, -1), (got, want))
        if not differ:
            return AuditCheck(name, True)
        i, j = min(differ)
        x, y = got.get((i, j), _ZERO_Q), want.get((i, j), _ZERO_Q)
        return AuditCheck(name, False, detail.format(i + 1, j + 1, x, y))

    try:
        validate_structure(model)
        checks.append(AuditCheck("bracket_structure", True))
    except InvalidModel as exc:
        checks.append(AuditCheck("bracket_structure", False, str(exc)))

    # phi^2 = -Id + eta (x) xi = -P and phi^T phi = Id - eta (x) eta = P, with
    # P the projector onto the contact distribution
    onto_d = {(i, i): Fraction(1) for i in range(dim) if i != xi}
    minus_onto_d = {key: -value for key, value in onto_d.items()}
    component = "component ({},{}): {} != {}"
    phi_t = _permute(phi, (1, 0))
    checks.append(matrix_check("phi_square", _act(phi, phi, 0), minus_onto_d, component))
    checks.append(matrix_check("metric_compatibility", _act(phi_t, phi, 0), onto_d, component))
    # d(eta)(e_i,e_j) = -eta([e_i,e_j])/2 must equal g(e_i, phi e_j)
    d_eta = {(i, j): -value / 2 for (i, j, k), value in c.items() if k == xi}
    checks.append(matrix_check("contact_condition", d_eta, phi, "d(eta)(e_{},e_{}) = {} != {}"))

    # nabla_X xi = -phi X - phi h X
    if checks[0].passed:
        nabla_xi = {(i, k): value for (i, j, k), value in _connection(c).items() if j == xi}
        phi_h = _act(phi, _h_operator(model), 0)
        want = _permute(_lincomb((-1, -1), (phi, phi_h)), (1, 0))
        detail = "nabla_(e_{}) xi component {}: {} != {}"
        checks.append(matrix_check("reeb_derivative", nabla_xi, want, detail))
    else:
        checks.append(
            AuditCheck("reeb_derivative", False, "skipped: invalid bracket structure")
        )

    return AuditReport(tuple(checks))


def nullity_residual(curv: CurvatureData, kappa: Fraction, mu: Fraction) -> Fraction:
    """Max |component| of R(e_i,e_j)xi - kappa(...) - mu(...) over the frame."""
    dim, xi = curv.dim, curv.xi_index
    r_xi = {(i, j, l): value for (i, j, k, l), value in curv.riemann.items() if k == xi}
    # kappa(eta(j) delta_il - eta(i) delta_jl) + mu(eta(j) h_li - eta(i) h_lj)
    # is a[i, j, l] - a[j, i, l] with a[i, xi, l] = kappa delta_il + mu h_li
    identity = {(i, i): Fraction(1) for i in range(dim)}
    row = _lincomb((kappa, mu), (identity, _permute(curv.h, (1, 0))))
    a = {(i, xi, l): value for (i, l), value in row.items()}
    return _max_abs(_lincomb((1, -1, 1), (r_xi, a, _permute(a, (1, 0, 2)))))


def nullity_fit(curv: CurvatureData) -> NullityFit:
    """Fit (kappa, mu) from the R(e_i, xi) xi block, then verify globally.

    The fit is the exact least-squares solution of the linear system the
    block imposes; in the orthonormal frame its normal matrix is diagonal
    (trace h = 0), so kappa and mu decouple.  For exact fits the Ricci
    contractions S(X, xi) = 2 n kappa eta(X) are verified as well.
    """
    dim, xi, h = curv.dim, curv.xi_index, curv.h
    # R(e_i, xi) xi = kappa e_i + mu h e_i for horizontal i
    block = {(i, l): v for (i, j, k, l), v in curv.riemann.items() if j == k == xi != i}
    kappa = sum(block.get((i, i), _ZERO_Q) for i in range(dim)) / Fraction(dim - 1)
    h_norm = sum(value**2 for (l, i), value in h.items() if i != xi)
    if h_norm:
        mu = sum(value * h.get((l, i), _ZERO_Q) for (i, l), value in block.items()) / h_norm
    else:
        if h:
            raise DegenerateFit("h is nonzero but carries no frame norm")
        mu = Fraction(0)
    residual = nullity_residual(curv, kappa, mu)
    exact = residual == 0
    if exact:
        # S(e_i, xi) = 2 n kappa eta(e_i), 2n = dim - 1; i = xi checks S(xi, xi)
        for i in range(dim):
            got = curv.ricci.get((i, xi), _ZERO_Q)
            want = (dim - 1) * kappa if i == xi else _ZERO_Q
            if got != want:
                raise InvalidModel(f"Ricci check fails: S(e_{i+1}, xi) = {got} != {want}")
    return NullityFit(kappa=kappa, mu=mu, exact=exact, max_residual=residual)


def nk_lie_group_3d(lam: RationalLike) -> FrameModel:
    """The 3-dimensional left-invariant family with kappa = 1 - lambda^2.

    Brackets [e1,e2] = 2 e3, [e2,e3] = (1-lambda) e1, [e3,e1] = (1+lambda) e2,
    Reeb vector e3, phi(e1) = e2, phi(e2) = -e1.  lambda = 0 is the Sasakian
    member (h = 0); lambda = +-1 degenerates to kappa = 0.
    """
    lam = as_rational(lam)
    brackets = [(0, 1, 2, 2), (1, 2, 0, 1 - lam), (2, 0, 1, 1 + lam)]
    return build_model(3, brackets, xi_index=2, phi=[[0, -1, 0], [1, 0, 0], [0, 0, 0]])


# ---------------------------------------------------------------------------
# plain-text model files (1-based indices)


def render_model(model: FrameModel) -> str:
    """Serialize to the plain-text format accepted by parse_model."""
    dim = model.dim
    lines = [f"dim {dim}", f"xi {model.xi_index + 1}"]
    for i in range(dim):
        row = (model.phi.get((i, j), _ZERO_Q) for j in range(dim))
        lines.append("phi " + " ".join(map(str, row)))
    for (i, j, k), value in sorted(model.structure.items()):
        if i < j:
            lines.append(f"c {i+1} {j+1} {k+1} : {value}")
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> FrameModel:
    """Parse the plain-text model format.

    Lines: ``dim D``, ``xi I``, one ``phi r1 ... rD`` per matrix row, and
    ``c i j k : p/q`` for each nonzero structure constant (1-based).  Blank
    lines and ``#`` comments are ignored.  A ``dim`` above ``MAX_DIM``, and a
    second ``dim`` or ``xi``, is rejected on its own line.  Non-antisymmetric
    input and pairs given twice inconsistently are rejected.
    """
    header = {}  # "dim" and "xi", each declared once
    phi_rows = []
    brackets = []
    for lineno, line in numbered_lines(text):
        parts = line.split()
        try:
            if parts[0] in ("dim", "xi"):
                if parts[0] in header:
                    raise ModelFormatError(f"duplicate directive {parts[0]!r}")
                if len(parts) < 2:
                    raise ModelFormatError(f"expected '{parts[0]} <integer>'")
                value = header[parts[0]] = as_int(parts[1], parts[0])
                if parts[0] == "dim" and value > MAX_DIM:
                    raise ModelFormatError(f"dim {value} is above the maximum {MAX_DIM}")
            elif parts[0] == "phi":
                phi_rows.append([as_rational(x) for x in parts[1:]])
            elif parts[0] == "c":
                if len(parts) != 6 or parts[4] != ":":
                    raise ModelFormatError("expected 'c i j k : value'")
                i, j, k = (as_int(x, f"index {name}") - 1 for x, name in zip(parts[1:4], "ijk"))
                brackets.append((i, j, k, as_rational(parts[5])))
            else:
                raise ModelFormatError(f"unknown directive {parts[0]!r}")
        except InputError as exc:
            raise ModelFormatError(f"line {lineno}: {exc}") from exc
    if header.keys() != {"dim", "xi"}:
        raise ModelFormatError("model file must declare dim and xi")
    dim = header["dim"]
    if len(phi_rows) != dim:
        raise ModelFormatError(f"expected {dim} phi rows, found {len(phi_rows)}")
    return build_model(dim, brackets, header["xi"] - 1, phi_rows)
