"""Independent oracle implementations used to cross-check the library.

Everything here is coded directly from the defining formulas with plain
loops over Fraction arrays, deliberately not reusing the library's tensor
code paths.
"""

from fractions import Fraction


def milnor_ricci(c1, c2, c3):
    """Ricci diagonal of the diagonal 3-dim bracket family.

    For [e2,e3] = c1 e1, [e3,e1] = c2 e2, [e1,e2] = c3 e3 on an orthonormal
    left-invariant frame, Ric(e_i) = 2 mu_j mu_k with
    mu_i = (-c_i + c_j + c_k)/2.
    """
    mu1 = Fraction(-c1 + c2 + c3, 1) / 2
    mu2 = Fraction(c1 - c2 + c3, 1) / 2
    mu3 = Fraction(c1 + c2 - c3, 1) / 2
    return (2 * mu2 * mu3, 2 * mu1 * mu3, 2 * mu1 * mu2)


def koszul_gamma(structure, dim):
    """Connection coefficients straight from the Koszul formula."""
    gamma = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                gamma[i][j][k] = (
                    structure.get((i, j, k), Fraction(0)) - structure.get((j, k, i), Fraction(0))
                    + structure.get((k, i, j), Fraction(0))
                ) / 2
    return gamma


def riemann_loop(structure, dim):
    """riemann[i][j][k][l] = g(R(e_i,e_j)e_k, e_l), summed index by index from
    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z."""
    gamma = koszul_gamma(structure, dim)
    riemann = [
        [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for _ in range(dim)
    ]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(dim):
                    value = Fraction(0)
                    for m in range(dim):
                        value += gamma[j][k][m] * gamma[i][m][l]
                        value -= gamma[i][k][m] * gamma[j][m][l]
                        value -= structure.get((i, j, m), 0) * gamma[m][k][l]
                    riemann[i][j][k][l] = value
    return riemann


def first_jacobi_failure(structure, dim):
    """First triple i < j < k (lexicographic) whose Jacobi sum
    [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] is nonzero, or None."""
    c = structure
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                for l in range(dim):
                    total = Fraction(0)
                    for m in range(dim):
                        total += (
                            c.get((i, j, m), 0) * c.get((m, k, l), 0)
                            + c.get((j, k, m), 0) * c.get((m, i, l), 0)
                            + c.get((k, i, m), 0) * c.get((m, j, l), 0)
                        )
                    if total:
                        return (i, j, k)
    return None


def h_loop(structure, xi, phi, dim):
    """Matrix of h = (L_xi phi) / 2 from (L_xi phi) e_i = [xi, phi e_i] -
    phi [xi, e_i], component by component."""
    c = structure
    h = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for k in range(dim):
            value = Fraction(0)
            for p in range(dim):
                value += phi.get((p, i), 0) * c.get((xi, p, k), 0)
                value -= c.get((xi, i, p), 0) * phi.get((k, p), 0)
            h[k][i] = value / 2
    return h


def t_vector(curv, a, i, j, k):
    """T(e_i,e_j)e_k from the defining eight-term formula, written out."""
    dim = curv.dim
    ricci = curv.ricci
    scalar = curv.scalar
    out = [Fraction(0)] * dim
    for l in range(dim):
        out[l] += a[0] * curv.riemann.get((i, j, k, l), 0)
    out[i] += a[1] * ricci.get((j, k), 0)
    out[j] += a[2] * ricci.get((i, k), 0)
    out[k] += a[3] * ricci.get((i, j), 0)
    if j == k:
        for l in range(dim):
            out[l] += a[4] * ricci.get((i, l), 0)
    if i == k:
        for l in range(dim):
            out[l] += a[5] * ricci.get((j, l), 0)
    if i == j:
        for l in range(dim):
            out[l] += a[6] * ricci.get((k, l), 0)
    if j == k:
        out[i] += a[7] * scalar
    if i == k:
        out[j] -= a[7] * scalar
    return out


def flatness_bruteforce(model, curv, a, kind, strict=False):
    """Max-abs flatness residual with phi e_i and xi inserted by hand.

    kind is "t-flat", "xi-flat", "quasi-flat" or "phi-flat"; phi e_i is the
    frame vector sum_p phi[p][i] e_p, and T is expanded multilinearly in
    every slot that receives one.
    """
    dim, xi, phi = model.dim, model.xi_index, model.phi

    def phi_of(i):
        return [phi.get((p, i), 0) for p in range(dim)]

    def t_of(u, v, w):
        # T(u, v) w for frame-component vectors u, v, w
        out = [Fraction(0)] * dim
        for p in range(dim):
            for q in range(dim):
                for r in range(dim):
                    weight = u[p] * v[q] * w[r]
                    if weight:
                        piece = t_vector(curv, a, p, q, r)
                        for m in range(dim):
                            out[m] += weight * piece[m]
        return out

    def unit(i):
        return [Fraction(p == i) for p in range(dim)]

    def g(u, v):
        return sum((x * y for x, y in zip(u, v)), Fraction(0))

    values = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(dim):
                    if kind == "t-flat":
                        value = t_vector(curv, a, i, j, k)[l]
                    elif kind == "xi-flat" and strict:
                        value = t_vector(curv, a, i, j, xi)[l]
                    elif kind == "xi-flat":
                        value = t_vector(curv, a, i, xi, xi)[l]
                    elif kind == "quasi-flat":
                        value = g(t_of(phi_of(i), unit(j), unit(k)), phi_of(l))
                    elif kind == "phi-flat":
                        value = g(t_of(phi_of(i), phi_of(j), phi_of(k)), phi_of(l))
                    else:
                        raise ValueError(kind)
                    values.append(abs(value))
    return max(values)


def t_dot_riemann_bruteforce(model, curv, a, variant="standard"):
    """(T(xi,e_i).R)(e_j,e_k)e_l by direct four-term expansion.

    The derivation of a (1,3) tensor P2 by P1(X1,X2) is
    P1(X1,X2)(P2(X3,X4)X5) - P2(P1(X1,X2)X3, X4)X5
    - P2(X3, P1(X1,X2)X4)X5 - P2(X3,X4)(P1(X1,X2)X5);
    variant="printed" replaces the last term's slot pair (X3,X4) by (X1,X2)
    with X1 = xi's partner slot, mirroring a typo'd display.
    """
    dim, xi = model.dim, model.xi_index

    def t_of_vector(i, vec):
        out = [Fraction(0)] * dim
        for p in range(dim):
            if vec[p]:
                piece = t_vector(curv, a, xi, i, p)
                for m in range(dim):
                    out[m] += vec[p] * piece[m]
        return out

    def r_of(vec_first, b, c):
        out = [Fraction(0)] * dim
        for p in range(dim):
            if vec_first[p]:
                for m in range(dim):
                    out[m] += vec_first[p] * curv.riemann.get((p, b, c, m), 0)
        return out

    def r_last(bidx, cidx, vec):
        out = [Fraction(0)] * dim
        for p in range(dim):
            if vec[p]:
                for m in range(dim):
                    out[m] += vec[p] * curv.riemann.get((bidx, cidx, p, m), 0)
        return out

    result = {}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(dim):
                    r_jkl = [curv.riemann.get((j, k, l, m), 0) for m in range(dim)]
                    term1 = t_of_vector(i, r_jkl)
                    term2 = r_of(t_vector(curv, a, xi, i, j), k, l)
                    term3 = [Fraction(0)] * dim
                    tvk = t_vector(curv, a, xi, i, k)
                    for p in range(dim):
                        if tvk[p]:
                            for m in range(dim):
                                term3[m] += tvk[p] * curv.riemann.get((j, p, l, m), 0)
                    tvl = t_vector(curv, a, xi, i, l)
                    if variant == "standard":
                        term4 = r_last(j, k, tvl)
                    else:
                        term4 = r_last(i, j, tvl)
                    result[(i, j, k, l)] = tuple(
                        term1[m] - term2[m] - term3[m] - term4[m] for m in range(dim)
                    )
    return result


def t_dot_ricci_bruteforce(model, curv, a):
    """S(T(xi,e_i)e_j, e_k) + S(e_j, T(xi,e_i)e_k) by direct expansion."""
    dim, xi = model.dim, model.xi_index
    result = {}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                tij = t_vector(curv, a, xi, i, j)
                tik = t_vector(curv, a, xi, i, k)
                value = Fraction(0)
                for p in range(dim):
                    value += tij[p] * curv.ricci.get((p, k), 0)
                    value += curv.ricci.get((j, p), 0) * tik[p]
                result[(i, j, k)] = value
    return result


# ---------------------------------------------------------------------------
# tuple-keyed polynomials: the scalar core's representation before monomials
# were packed into ints, kept as the reference for the packed one.  Terms map
# exponent tuples in VARIABLES order (n first, s last) to coefficients.

_N, _S = 0, 9
_NAMES = ("n", "kappa", "lambda", "r", "mu", "a", "c", "a0", "a1", "s")


def reduce_exps(exps):
    """Apply s*s -> n to one exponent tuple."""
    es = exps[_S]
    if es < 2:
        return tuple(exps)
    lst = list(exps)
    lst[_N] += es // 2
    lst[_S] = es % 2
    return tuple(lst)


def tuple_poly(terms):
    """Reduced copy of {exponent tuple: coefficient}, zero terms dropped."""
    out = {}
    for exps, coeff in terms.items():
        key = reduce_exps(exps)
        acc = out.get(key, 0) + coeff
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


def tuple_mul(first, second):
    """Product of two reduced tuple-keyed polynomials, term by term."""
    out = {}
    for e1, c1 in first.items():
        for e2, c2 in second.items():
            exps = reduce_exps(tuple(a + b for a, b in zip(e1, e2)))
            acc = out.get(exps, 0) + c1 * c2
            if acc:
                out[exps] = acc
            elif exps in out:
                del out[exps]
    return out


def tuple_divide(num, den):
    """(quotient, rest) of dividing by den's lex-largest term until the
    largest monomial of rest is no multiple of it, one term at a time with
    tuple_mul."""
    lead = max(den)
    quotient, rest = {}, dict(num)
    while rest:
        top = max(rest)
        exps = tuple(a - b for a, b in zip(top, lead))
        if min(exps) < 0:
            break
        quotient[exps] = Fraction(rest[top]) / den[lead]
        product = tuple_mul({exps: quotient[exps]}, den)
        rest = tuple_poly({key: rest.get(key, 0) - product.get(key, 0)
                           for key in {**rest, **product}})
    return quotient, rest


def tuple_str(terms):
    """The rendering of Poly.__str__: terms in descending lex order."""
    if not terms:
        return "0"
    pieces = []
    for exps in sorted(terms, reverse=True):
        coeff = Fraction(terms[exps])
        mono = "*".join(f"{_NAMES[i]}^{e}" if e > 1 else _NAMES[i]
                        for i, e in enumerate(exps) if e)
        size = abs(coeff)
        number = str(size.numerator) if size.denominator == 1 else str(size)
        body = number if not mono else mono if size == 1 else f"{number}*{mono}"
        pieces.append(("-" if coeff < 0 else "+", body))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in pieces[1:])
