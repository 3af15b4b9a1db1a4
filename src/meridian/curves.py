"""Exact checks of the explicit plane-curve identities behind the groups.

MultiPoly is a sparse multivariate polynomial over Q with graded-lex term
order.  It follows ``exactalg.UniPoly``'s coefficient rule: an ``int``
coefficient stays an ``int`` and any other becomes a ``fractions.Fraction``,
so the integer presets below are expanded, substituted and discriminated in
Z.  The presets are the classical equations of the tricuspidal quartic
pencil and of the rational degree-5 model, and the test suite pins their
canonical string forms so a transcription slip cannot hide.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .exactalg import BiPoly, UniPoly, discriminant_y


class MultiPoly:
    """Sparse polynomial over Q in a fixed ordered tuple of variables.

    ``terms`` maps exponent tuples to nonzero ``int`` or ``Fraction``
    coefficients; an ``int`` is never converted.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        for exps, c in (terms or {}).items():
            if not isinstance(c, int):
                c = Fraction(c)
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def var(cls, name, variables) -> "MultiPoly":
        variables = tuple(variables)
        exps = tuple(1 if v == name else 0 for v in variables)
        if name not in variables:
            raise ValueError(f"{name!r} is not among {variables}")
        return cls(variables, {exps: 1})

    @classmethod
    def const(cls, value, variables) -> "MultiPoly":
        return cls(variables, {tuple(0 for _ in variables): value})

    def _check(self, other):
        if self.variables != other.variables:
            raise ValueError("polynomials over different variable tuples")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, MultiPoly)
                and self.variables == other.variables
                and self.terms == other.terms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.variables)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return MultiPoly(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.variables)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.variables,
                             {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return MultiPoly(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        out = MultiPoly.const(1, self.variables)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def substitute(self, assignment: dict) -> "MultiPoly":
        """Substitute MultiPolys (over a common variable tuple) for variables.

        Variables absent from the assignment must not occur.
        """
        target_vars = None
        for v in assignment.values():
            target_vars = v.variables
            break
        if target_vars is None:
            raise ValueError("empty assignment")
        images = []
        for i, name in enumerate(self.variables):
            if name in assignment:
                images.append(assignment[name])
            else:
                if any(e[i] for e in self.terms):
                    raise ValueError(f"no image supplied for {name!r}")
                images.append(MultiPoly.const(0, target_vars))
        out = MultiPoly.const(0, target_vars)
        for exps, c in self.terms.items():
            term = MultiPoly.const(c, target_vars)
            for img, e in zip(images, exps):
                if e:
                    term = term * img ** e
            out = out + term
        return out

    def evaluate(self, assignment: dict) -> Fraction:
        out = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for name, e in zip(self.variables, exps):
                if e:
                    v *= Fraction(assignment[name]) ** e
            out += v
        return out

    def coefficients_in(self, name: str) -> list["MultiPoly"]:
        """Coefficient polynomials of powers of one variable, low to high."""
        i = self.variables.index(name)
        rest = self.variables[:i] + self.variables[i + 1:]
        top = max((e[i] for e in self.terms), default=-1)
        out = [MultiPoly(rest, {}) for _ in range(top + 1)]
        for exps, c in self.terms.items():
            key = exps[:i] + exps[i + 1:]
            k = exps[i]
            out[k] = out[k] + MultiPoly(rest, {key: c})
        return out

    def _sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda item: (-sum(item[0]),
                                        tuple(-e for e in item[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self._sorted_terms():
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(abs(c))
            else:
                mag = abs(c)
                body = "*".join(([] if mag == 1 else [str(mag)]) + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        first = parts[0]
        out = first[2:] if first.startswith("+ ") else "-" + first[2:]
        return out + "".join(" " + p for p in parts[1:])

    __repr__ = __str__


# --- curve presets ----------------------------------------------------------------

_XYZA = ("x", "y", "z", "a")
_TS = ("t", "s")


def _v(name, variables=_XYZA):
    return MultiPoly.var(name, variables)


def curve_presets() -> dict:
    """The pencil of the tricuspidal quartic and the rational quintic model.

    Keys: quartic (the tricuspidal quartic), tangent_line, conic, cubic (the
    pencil members through the chosen smooth point with parameter a), quintic
    (the degree-5 model with rational coefficients), parametrization (the
    quartic's rational parametrization in t, s).
    """
    x, y, z, a = (_v(n) for n in _XYZA)
    quartic = (x ** 2 * y ** 2 + y ** 2 * z ** 2 + x ** 2 * z ** 2
               - 2 * x * y * z * (x + y + z))
    tangent = (a - 1) ** 3 * x - a ** 3 * y + z
    conic = a * (a - 1) * x * y - (a - 1) * x * z + a * y * z
    cubic = (-(a - 2) * (2 * a - 1) * (a + 1) * x * y * z
             - a ** 3 * x * y ** 2 - x * z ** 2
             - (a - 1) ** 3 * x ** 2 * y + y * z ** 2
             + (a - 1) ** 3 * x ** 2 * z + a ** 3 * y ** 2 * z)
    xq, yq, zq = (MultiPoly.var(n, ("x", "y", "z")) for n in ("x", "y", "z"))
    quintic = (zq ** 2 * yq ** 3
               - zq * (33 * xq * zq + 2 * xq ** 2 + 8 * zq ** 2) * yq ** 2
               + (21 * zq ** 2 + 21 * xq * zq - xq ** 2)
               * (zq ** 2 + 11 * xq * zq - xq ** 2) * yq
               + (xq - 18 * zq) * (zq ** 2 + 11 * xq * zq - xq ** 2) ** 2)
    t, s = (MultiPoly.var(n, _TS) for n in _TS)
    parametrization = {
        "x": t ** 2 * s ** 2,
        "y": (t - s) ** 2 * s ** 2,
        "z": t ** 2 * (t - s) ** 2,
    }
    return {
        "quartic": quartic,
        "tangent_line": tangent,
        "conic": conic,
        "cubic": cubic,
        "quintic": quintic,
        "parametrization": parametrization,
    }


def verify_pencil_identity(presets: dict) -> tuple[bool, MultiPoly]:
    """Check quartic * tangent^2 == cubic^2 - 4 conic^3 identically.

    Returns (holds, residual); the residual is the expanded difference.
    ``presets`` is a ``curve_presets()`` dict, as in the checks below.
    """
    residual = (presets["quartic"] * presets["tangent_line"] ** 2
                - (presets["cubic"] ** 2 - 4 * presets["conic"] ** 3))
    return residual.is_zero(), residual


def verify_parametrization(presets: dict) -> bool:
    """The rational parametrization lands on the quartic identically."""
    assignment = dict(presets["parametrization"])
    assignment["a"] = MultiPoly.const(0, _TS)   # the quartic does not use a
    image = presets["quartic"].substitute(assignment)
    return image.is_zero()


class DiscriminantReport:
    __slots__ = ("discriminant", "constant", "proportional")

    def __init__(self, discriminant: UniPoly, constant: int | Fraction | None,
                 proportional: bool):
        self.discriminant = discriminant
        self.constant = constant    # nonzero c with disc = c * x * (x^2-11x-1)^5
        self.proportional = proportional


def quintic_fiber_polynomial(presets: dict) -> BiPoly:
    """The affine quintic as a cubic in y over Q[x] (projective z set to 1)."""
    coeffs = []
    for cy in presets["quintic"].coefficients_in("y"):
        # remaining variables (x, z); set z = 1
        xz = cy.coefficients_in("z")
        acc = UniPoly()
        for piece in xz:
            top = max((e[0] for e in piece.terms), default=-1)
            dense = [0] * (top + 1)
            for exps, c in piece.terms.items():
                dense[exps[0]] += c
            acc = acc + UniPoly(dense)
        coeffs.append(acc)
    return BiPoly(coeffs)


def degtyarev_discriminant(presets: dict) -> DiscriminantReport:
    """Discriminant of the affine quintic fibration and its factored shape.

    The projection is 3:1, and the y-discriminant of the fiber cubic must be
    x (x^2 - 11x - 1)^5 up to a nonzero rational constant.
    """
    disc = discriminant_y(quintic_fiber_polynomial(presets))
    expected = UniPoly([0, 1]) * (UniPoly([-1, -11, 1]) ** 5)
    q, r = disc.divmod(expected)
    if r.is_zero() and q.degree == 0 and q.coeffs[0]:
        return DiscriminantReport(disc, q.coeffs[0], True)
    return DiscriminantReport(disc, None, False)


def plucker_dual_degree(degree: int, singular_points) -> int:
    """Degree of the dual curve: d(d-1) - sum over points of (mu - 1 + m)."""
    if degree < 1:
        raise ValueError("curve degree must be at least 1")
    total = degree * (degree - 1)
    for mu, m in singular_points:
        if mu < 1 or m < 1:
            raise ValueError("Milnor numbers and multiplicities are >= 1")
        total -= mu - 1 + m
    if total < 0:
        raise ValueError("inconsistent singularity data: negative dual degree")
    return total
