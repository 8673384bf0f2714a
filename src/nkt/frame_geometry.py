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

All of it runs on the sparse kernel below, shared with t_tensor: a tensor is
a dict from index tuple to nonzero entry, so work follows the nonzero
entries, and entries need only +, *, unary - and a truth test (Fractions or
RationalExprs).  Public results are indexed [i][j][k][l] through ``dense``.

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
from typing import Iterable, Optional, Sequence

from .scalar_algebra import RationalLike, Record, _frac_str, as_rational

MAX_DIM = 15  # the largest frame a model file may declare


class InvalidModel(Exception):
    """The bracket table is not a Lie algebra (antisymmetry or Jacobi fails),
    or curvature data passed with a model contradict it."""


class DegenerateFit(Exception):
    """The nullity fit cannot attribute a mu-component to the h-operator."""


class ModelFormatError(ValueError):
    """A model file could not be parsed."""


class FrameModel(Record):
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


def _sparse(nested, prefix: tuple = ()) -> dict:
    """The nonzero entries of a nested sequence."""
    if not isinstance(nested, (tuple, list)):
        return {prefix: nested} if nested else {}
    return {k: v for i, sub in enumerate(nested) for k, v in _sparse(sub, prefix + (i,)).items()}


def dense(tensor: dict, dim: int, rank: int, prefix: tuple = ()) -> tuple:
    """Nested-tuple view of a sparse tensor, zeros filled in."""
    if len(prefix) == rank:
        return tensor.get(prefix, _ZERO_Q)
    return tuple(dense(tensor, dim, rank, prefix + (i,)) for i in range(dim))


def _view(name: str, rank: int) -> cached_property:
    """The dense view of the sparse tensor attribute ``name``, built on first use."""
    return cached_property(lambda self: dense(getattr(self, name), self.dim, rank))


class SparseTensor(dict):
    """A sparse tensor that also reads as its dense view: an int index,
    ``t[i][j]...``, indexes ``dense(t, dim, rank)``, built on first use."""

    def __init__(self, entries: dict, dim: int, rank: int):
        super().__init__(entries)
        self.dim, self.rank = dim, rank

    view = cached_property(lambda self: dense(self, self.dim, self.rank))

    def __missing__(self, key):
        if not isinstance(key, int):
            raise KeyError(key)
        return self.view[key]


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
    """All curvature objects of a model, exact, as sparse tensors.

    sparse_gamma[i, j, k] = g(nabla_{e_i} e_j, e_k); sparse_riemann[i, j, k, l]
    = g(R(e_i,e_j)e_k, e_l); sparse_ricci[j, k] = S(e_j,e_k), also the matrix
    of the Ricci operator Q; scalar is the ricci trace; sparse_h is the matrix
    of the h-operator.  gamma, riemann, ricci and h are the dense views.
    """

    dim: int
    sparse_gamma: dict
    sparse_riemann: dict
    sparse_ricci: dict
    scalar: Fraction
    sparse_h: dict

    gamma = _view("sparse_gamma", 3)
    riemann = _view("sparse_riemann", 4)
    ricci = _view("sparse_ricci", 2)
    h = _view("sparse_h", 2)


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
    """Assemble a model from sparse brackets (i, j, k, value), 0-based.

    The (j, i, k) entry is filled by antisymmetry; giving both with
    inconsistent values is rejected.
    """
    if dim < 3 or dim % 2 == 0:
        raise ModelFormatError(f"dimension must be odd and >= 3, got {dim}")
    if not 0 <= xi_index < dim:
        raise ModelFormatError(f"xi index {xi_index} out of range for dim {dim}")
    given = {}
    for i, j, k, value in brackets:
        value = as_rational(value)
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ModelFormatError(f"bracket index ({i},{j},{k}) out of range")
        if i == j and value:
            raise ModelFormatError(f"[e_{i+1}, e_{i+1}] must vanish")
        if (i, j, k) in given:
            raise ModelFormatError(f"duplicate bracket entry ({i+1},{j+1},{k+1})")
        if (j, i, k) in given and given[(j, i, k)] != -value:
            raise ModelFormatError(
                f"entries ({i+1},{j+1},{k+1}) and ({j+1},{i+1},{k+1}) are not antisymmetric"
            )
        given[(i, j, k)] = value
    table = {(j, i, k): -value for (i, j, k), value in given.items()}
    table.update(given)
    phi_rows = tuple(tuple(as_rational(x) for x in row) for row in phi)
    if len(phi_rows) != dim or any(len(row) != dim for row in phi_rows):
        raise ModelFormatError("phi matrix must be dim x dim")
    return FrameModel(dim, dense(table, dim, 3), xi_index, phi_rows)


def validate_structure(model: FrameModel) -> None:
    """Check bracket antisymmetry and the Jacobi identity exactly.

    Jacobi is checked as ad([e_i,e_j]) = [ad_i, ad_j]: column k of the
    difference is the Jacobi sum on (e_i, e_j, e_k), reported for the first
    failing triple i < j < k in lexicographic order."""
    c = _sparse(model.structure)
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


def levi_civita(model: FrameModel) -> tuple:
    """Connection coefficients gamma[i][j][k] = g(nabla_{e_i} e_j, e_k)."""
    return curvature(model).gamma


def _connection(c: dict) -> dict:
    half = Fraction(1, 2)
    # c[i, j, k] - c[j, k, i] + c[k, i, j], halved
    return _lincomb((half, -half, half), (c, _permute(c, (2, 0, 1)), _permute(c, (1, 2, 0))))


def _riemann(c: dict, gamma: dict) -> dict:
    # gamma[i] is the matrix of nabla_{e_i} acting on row vectors, so
    # R(e_i,e_j) = Gamma_j Gamma_i - Gamma_i Gamma_j - sum_m c[i][j][m] Gamma_m
    products = _act(gamma, gamma, 1)  # [i, j] -> Gamma_j Gamma_i
    return _lincomb((1, -1, -1), (products, _permute(products, (1, 0, 2, 3)), _act(c, gamma, 0)))


def h_tensor(model: FrameModel) -> tuple:
    """Matrix of h = (Lie derivative of phi along xi) / 2."""
    return curvature(model).h


def _h_operator(model: FrameModel) -> dict:
    # (L_xi phi) e = [xi, phi e] - phi [xi, e], so 2h = ad_xi phi - phi ad_xi
    xi = model.xi_index
    ad_xi = {(x, p): v for (i, p, x), v in _sparse(model.structure).items() if i == xi}
    phi = _sparse(model.phi)
    return _lincomb((Fraction(1, 2), Fraction(-1, 2)), (_act(ad_xi, phi, 0), _act(phi, ad_xi, 0)))


def curvature(model: FrameModel) -> CurvatureData:
    """All curvature data of the model; exact rational throughout."""
    validate_structure(model)
    c = _sparse(model.structure)
    gamma = _connection(c)
    riemann = _riemann(c, gamma)
    ricci = _collect(((j, k), v) for (i, j, k, l), v in riemann.items() if i == l)
    scalar = sum((v for (j, k), v in ricci.items() if j == k), _ZERO_Q)
    return CurvatureData(model.dim, gamma, riemann, ricci, scalar, _h_operator(model))


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
    c, phi = _sparse(model.structure), _sparse(model.phi)
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


def nullity_residual(
    model: FrameModel, curv: CurvatureData, kappa: Fraction, mu: Fraction
) -> Fraction:
    """Max |component| of R(e_i,e_j)xi - kappa(...) - mu(...) over the frame."""
    dim, xi = model.dim, model.xi_index
    r_xi = {(i, j, l): value for (i, j, k, l), value in curv.sparse_riemann.items() if k == xi}
    # kappa(eta(j) delta_il - eta(i) delta_jl) + mu(eta(j) h_li - eta(i) h_lj)
    # is a[i, j, l] - a[j, i, l] with a[i, xi, l] = kappa delta_il + mu h_li
    identity = {(i, i): Fraction(1) for i in range(dim)}
    row = _lincomb((kappa, mu), (identity, _permute(curv.sparse_h, (1, 0))))
    a = {(i, xi, l): value for (i, l), value in row.items()}
    return _max_abs(_lincomb((1, -1, 1), (r_xi, a, _permute(a, (1, 0, 2)))))


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
    h = curv.sparse_h
    # R(e_i, xi) xi = kappa e_i + mu h e_i for horizontal i
    block = {(i, l): v for (i, j, k, l), v in curv.sparse_riemann.items() if j == k == xi != i}
    kappa = sum(block.get((i, i), _ZERO_Q) for i in range(dim)) / Fraction(dim - 1)
    h_norm = sum(value**2 for (l, i), value in h.items() if i != xi)
    if h_norm:
        mu = sum(value * h.get((l, i), _ZERO_Q) for (i, l), value in block.items()) / h_norm
    else:
        if h:
            raise DegenerateFit("h is nonzero but carries no frame norm")
        mu = Fraction(0)
    residual = nullity_residual(model, curv, kappa, mu)
    exact = residual == 0
    if exact:
        # S(e_i, xi) = 2 n kappa eta(e_i); i = xi checks S(xi, xi) = 2 n kappa
        for i in range(dim):
            got = curv.sparse_ricci.get((i, xi), _ZERO_Q)
            want = 2 * kappa * model.n * model.eta(i)
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
    lines and ``#`` comments are ignored.  A ``dim`` above ``MAX_DIM`` is
    rejected on its own line.  Non-antisymmetric input and pairs given twice
    inconsistently are rejected.
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
                if dim > MAX_DIM:
                    raise ModelFormatError(f"dim {dim} is above the maximum {MAX_DIM}")
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
