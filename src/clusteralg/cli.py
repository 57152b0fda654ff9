"""Command-line driver: deterministic text/JSON views of the library."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from . import bipartite, exchange_graph, finite_type, laurent, mutation, principal
from .laurent import LaurentPolynomial, lp_canonical_text, lp_substitute_monomial
from .mutation import (
    InvalidDirection,
    MalformedMatrix,
    NotSkewSymmetrizable,
    matrix,
    matrix_from_json,
    matrix_to_json,
    named_matrix,
    rank2_matrix,
)
from .parametrization import checked_d_vector, recurrence_d_vectors
from .principal import CrossCheckFailure, PrincipalPattern
from .semifield import (
    PositiveRationalSemifield,
    TropicalSemifield,
    UniversalSemifield,
)


class UsageError(click.UsageError):
    pass


def _read(path, flag):
    """The text of the file given to flag; an unreadable file is a usage error."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError("%s %s: %s" % (flag, path, exc.strerror or exc))
    except UnicodeDecodeError:
        raise UsageError("%s %s: not UTF-8 text" % (flag, path))


def _load_b(type_name, matrix_file, rank2, btilde_file=None):
    sources = [s for s in (type_name, matrix_file, rank2, btilde_file) if s]
    if len(sources) != 1:
        raise UsageError("provide exactly one of --type / --matrix / --rank2 / --btilde")
    if type_name:
        if type_name not in mutation.CARTAN:
            raise UsageError(
                "unknown type %r (known: %s)"
                % (type_name, ", ".join(sorted(mutation.CARTAN)))
            )
        return named_matrix(type_name), None
    if rank2:
        try:
            b, c = (int(v) for v in rank2.split(","))
        except ValueError:
            raise UsageError("--rank2 expects 'b,c'")
        return rank2_matrix(b, c), None
    flag = "--matrix" if matrix_file else "--btilde"
    M, n = matrix_from_json(_read(matrix_file or btilde_file, flag))
    if btilde_file:
        return None, (M, n)
    if len(M) > n:
        raise UsageError(
            "--matrix expects an n x n exchange matrix, not a %dx%d extended "
            "matrix; pass extended matrices with --btilde" % (len(M), n)
        )
    return M, None


def _load_cartan(path):
    """The symmetrizable generalized Cartan matrix in a JSON file {"A": rows}:
    integer entries, a diagonal of 2, off-diagonal entries <= 0, a_ij = 0
    exactly when a_ji = 0, positive d_i with d_i a_ij = d_j a_ji, and a
    bipartite Coxeter graph."""
    text = _read(path, "--cartan")
    try:
        rows = json.loads(text)["A"]
    except (ValueError, TypeError, KeyError):
        raise UsageError('--cartan expects a JSON object {"A": rows}')
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in rows
    ):
        raise UsageError("--cartan expects a list of lists of integers")
    A = matrix(rows)
    n = len(A)
    if len(A[0]) != n:
        raise UsageError("--cartan expects a square matrix")
    for i in range(n):
        if A[i][i] != 2:
            raise UsageError("--cartan expects 2 on the diagonal")
        for j in range(n):
            if i != j and (A[i][j] > 0 or (A[i][j] == 0) != (A[j][i] == 0)):
                raise UsageError(
                    "--cartan expects a_ij <= 0, and a_ij = 0 exactly when "
                    "a_ji = 0, off the diagonal"
                )
    if mutation.tree_symmetrizer(A, 1) is None:
        raise UsageError("--cartan matrix is not symmetrizable")
    try:
        mutation.bipartite_sign_from_cartan(A)
    except ValueError:
        raise UsageError("--cartan matrix has a Coxeter graph that is not bipartite")
    return A


def _parse_path(text):
    if not text:
        return ()
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError("--path expects comma-separated indices")


def _parse_range(text):
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise UsageError("--range expects 'a:b'")
    if lo > hi:
        raise UsageError("--range expects a <= b")
    return lo, hi


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _poly_fraction_text(p):
    """Render a Laurent polynomial as numerator / monomial-denominator."""
    mins = p.min_exponents()
    den = tuple(-min(v, 0) for v in mins)
    if all(v == 0 for v in den):
        return lp_canonical_text(p)
    num = p.shift(den)
    dtxt = lp_canonical_text(LaurentPolynomial.monomial(p.vars, den))
    ntxt = lp_canonical_text(num)
    if len(num.terms) > 1:
        ntxt = "(%s)" % ntxt
    if "*" in dtxt or "^" in dtxt:
        dtxt = "(%s)" % dtxt
    return "%s / %s" % (ntxt, dtxt)


def _oplus_text(p):
    monos = (LaurentPolynomial(p.vars, {e: c}) for e, c in p.sorted_terms())
    return " (+) ".join(map(lp_canonical_text, monos)) or "0"


def _trop_text(exps, gens):
    return lp_canonical_text(LaurentPolynomial.monomial(gens, exps))


def _value_text(v):
    """A semifield value as text: universal, tropical or a rational."""
    return v.text() if hasattr(v, "text") else str(v)


def _b_options(command):
    """--type, --matrix and --rank2: the ways to give B to _load_b."""
    for args in (("--rank2",), ("--matrix", "matrix_file"), ("--type", "type_name")):
        command = click.option(*args, default=None)(command)
    return command


@click.group()
def main():
    """Exact cluster-algebra computations: seeds, belts, Y-systems."""


def _walk_text(B0, path):
    pat = PrincipalPattern(B0)
    n = pat.n
    yvars = pat.yvars
    yhat = pat.y_hat(())
    mapping = {yvars[r]: yhat[r] for r in range(n)}
    lines = []
    for t, d in enumerate(recurrence_d_vectors(pat, path)):
        prefix = path[:t]
        st = pat.state(prefix)
        lines.append("t=%d" % t)
        lines.append("Btilde = %s" % json.dumps([list(r) for r in st.Btilde]))
        for j in range(n):
            c = st.c_vector(j + 1)
            lines.append("y[%d] = %s" % (j + 1, _trop_text(c, yvars)))
        for j in range(n):
            lines.append(
                "X[%d] = %s" % (j + 1, _poly_fraction_text(st.X[j]))
            )
        for j in range(n):
            lines.append("F[%d] = %s" % (j + 1, lp_canonical_text(st.F[j])))
        for j in range(n):
            sub = lp_substitute_monomial(st.F[j], mapping)
            lines.append(
                "Fhat[%d] = %s" % (j + 1, _poly_fraction_text(sub))
            )
        for j in range(n):
            lines.append("FP[%d] = %s" % (j + 1, _oplus_text(st.F[j])))
        for j in range(n):
            lines.append("g[%d] = %s" % (j + 1, str(st.g[j])))
        for j in range(n):
            dj = checked_d_vector(pat, prefix, j + 1, d[j])
            lines.append("d[%d] = %s" % (j + 1, str(dj)))
        lines.append("")
    return "\n".join(lines)


@main.command()
@_b_options
@click.option("--path", "path_text", default="")
@click.option("--out", default=None)
def walk(type_name, matrix_file, rank2, path_text, out):
    """Principal-coefficient seed data at every vertex along a path."""
    B, _ = _load_b(type_name, matrix_file, rank2)
    _emit(_walk_text(B, _parse_path(path_text)), out)


@main.command(name="f-poly")
@_b_options
@click.option("--path", "path_text", default="")
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", default=None)
def f_poly(type_name, matrix_file, rank2, path_text, as_json, out):
    """F-polynomials at the end of a mutation path."""
    B, _ = _load_b(type_name, matrix_file, rank2)
    pat = PrincipalPattern(B)
    st = pat.state(_parse_path(path_text))
    if as_json:
        F = [laurent.lp_to_json(f) for f in st.F]
        _emit(json.dumps({"F": F}, sort_keys=True) + "\n", out)
        return
    lines = [
        "F[%d] = %s" % (j + 1, lp_canonical_text(st.F[j])) for j in range(pat.n)
    ]
    _emit("\n".join(lines) + "\n", out)


@main.command(name="g-vector")
@_b_options
@click.option("--path", "path_text", default="")
@click.option("--out", default=None)
def g_vector(type_name, matrix_file, rank2, path_text, out):
    """g-vectors at the end of a mutation path."""
    B, _ = _load_b(type_name, matrix_file, rank2)
    _, g = principal.g_walk(B)(_parse_path(path_text))
    lines = ["g[%d] = %s" % (j + 1, str(gj)) for j, gj in enumerate(g)]
    _emit("\n".join(lines) + "\n", out)


@main.command(name="d-vector")
@_b_options
@click.option("--path", "path_text", default="")
@click.option("--out", default=None)
def d_vector(type_name, matrix_file, rank2, path_text, out):
    """Denominator vectors at the end of a mutation path."""
    B, _ = _load_b(type_name, matrix_file, rank2)
    pat = PrincipalPattern(B)
    path = _parse_path(path_text)
    *_, d = recurrence_d_vectors(pat, path)
    lines = [
        "d[%d] = %s" % (j + 1, checked_d_vector(pat, path, j + 1, d[j]))
        for j in range(pat.n)
    ]
    _emit("\n".join(lines) + "\n", out)


@main.command()
@_b_options
@click.option("--btilde", "btilde_file", default=None)
@click.option("--path", "path_text", default="")
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", default=None)
def mutate(type_name, matrix_file, rank2, btilde_file, path_text, as_json, out):
    """Mutate an exchange matrix (or extended matrix) along a path."""
    B, ext = _load_b(type_name, matrix_file, rank2, btilde_file)
    if ext:
        M, n = ext
    else:
        M, n = B, len(B)
    for k in _parse_path(path_text):
        M = mutation.mutate_matrix(M, k)
    if as_json:
        _emit(matrix_to_json(M, n) + "\n", out)
        return
    _emit("\n".join(" ".join(str(v) for v in row) for row in M) + "\n", out)


@main.command()
@_b_options
@click.option("--coeffs", default="trivial", type=click.Choice(["principal", "trivial"]))
@click.option("--cap", default=100000, type=click.IntRange(min=1))
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", default=None)
def graph(type_name, matrix_file, rank2, coeffs, cap, as_json, out):
    """Exchange-graph BFS: vertex/edge counts and cluster variables."""
    B, _ = _load_b(type_name, matrix_file, rank2)
    res = exchange_graph.graph_from_spec(B, coeffs=coeffs, cap=cap)
    if as_json:
        _emit(
            json.dumps(
                {
                    "vertices": res["vertices"],
                    "edges": res["edges"],
                    "finite": res["finite"],
                    "cluster_variables": res["cluster_variables"],
                },
                sort_keys=True,
            )
            + "\n",
            out,
        )
        return
    _emit(
        "vertices=%d edges=%d finite=%s\n"
        % (res["vertices"], len(res["edges"]), "true" if res["finite"] else "false"),
        out,
    )


@main.command()
@_b_options
@click.option("--range", "range_text", default=None)
@click.option("--verify/--no-verify", default=True)
@click.option("--out", default=None)
def belt(type_name, matrix_file, rank2, range_text, verify, out):
    """Bipartite-belt seeds over an index range, with invariant checks."""
    B, _ = _load_b(type_name, matrix_file, rank2)
    eps = bipartite.cartan_counterpart_and_sign(B)[1]
    if eps is None:
        raise UsageError("no bipartite belt: the exchange matrix is not bipartite")
    if range_text is None:
        h = bipartite.belt_of(B).cox["h"]
        if h is None:
            raise UsageError("--range required for infinite type")
        m_range = (-h - 2, h + 1)
    else:
        m_range = _parse_range(range_text)
    bw = bipartite.belt_walk(B, m_range, verify=verify)
    lines = []
    for m in range(m_range[0], m_range[1] + 1):
        for i in range(1, bw.n + 1):
            if i - 1 in bipartite.tracked(eps, m):
                x = _poly_fraction_text(bw.x_im(i, m))
                d = bw.d_vector(i - 1, m)
                lines += ["x[%d;%d] = %s" % (i, m, x), "d(%d;%d) = %s" % (i, m, d)]
            else:
                y = _trop_text(bw.y_jm_tracked(i, m), bw.pattern.yvars)
                lines.append("y[%d;%d] = %s" % (i, m, y))
    _emit("\n".join(lines) + "\n", out)


@main.command()
@click.option("--type", "type_name", default=None)
@click.option("--rank2", default=None)
@click.option("--cartan", "cartan_file", default=None)
@click.option("--steps", default=6, type=click.IntRange(min=0))
@click.option("--initial", default="u", type=click.Choice(["u", "y", "ones"]))
@click.option(
    "--semifield",
    "semifield_name",
    default="universal",
    type=click.Choice(["universal", "trop", "numeric"]),
)
@click.option("--out", default=None)
def ysystem(type_name, rank2, cartan_file, steps, initial, semifield_name, out):
    """Iterate the Y-system attached to a symmetrizable Cartan matrix."""
    if initial == "ones" and semifield_name == "trop":
        raise UsageError("--initial ones is numeric and cannot run in --semifield trop")
    if cartan_file:
        if type_name or rank2:
            raise UsageError("provide exactly one of --type / --rank2 / --cartan")
        A = _load_cartan(cartan_file)
    else:
        B, _ = _load_b(type_name, None, rank2)
        A = bipartite.cartan_counterpart_and_sign(B)[0]
    n = len(A)
    eps = bipartite.bipartite_sign_from_cartan(A)
    if semifield_name == "numeric" or initial == "ones":
        S = PositiveRationalSemifield()
        init_vals = [Fraction(1)] * n
        conv = "u"
    elif semifield_name == "trop":
        gens = tuple("y%d" % (i + 1) for i in range(n))
        S = TropicalSemifield(gens)
        init_vals = [S.generator(g) for g in gens]
        conv = initial
    else:
        gens = tuple("u%d" % (i + 1) for i in range(n))
        S = UniversalSemifield(gens)
        init_vals = [S.generator(g) for g in gens]
        conv = initial
    vals = bipartite.y_system_solve(
        A, S, steps=steps, initial=conv, initial_values=init_vals, eps=eps
    )
    lines = []
    for (i, m) in sorted(vals, key=lambda t: (t[1], t[0])):
        lines.append("y[%d;%d] = %s" % (i, m, _value_text(vals[(i, m)])))
    _emit("\n".join(lines) + "\n", out)


def _universal_build(B):
    """Universal coefficients of B; a matrix of infinite type, or one that
    is not bipartite, is a usage error."""
    try:
        return finite_type.universal_build(B)
    except finite_type.NotFiniteType as exc:
        raise UsageError("no universal coefficients: %s" % exc)


@main.command()
@_b_options
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", default=None)
def universal(type_name, matrix_file, rank2, as_json, out):
    """Universal coefficient system and its exchange relations."""
    B, _ = _load_b(type_name, matrix_file, rank2)
    U = _universal_build(B)
    rel = finite_type.universal_exchange_relations(U)
    names = U["gen_names"]

    def term_text(t):
        coeff, mono = t
        parts = []
        for i, e in enumerate(coeff):
            if e:
                parts.append(names[i] if e == 1 else "%s^%d" % (names[i], e))
        for lab, e in mono:
            parts.append("x[%s]" % lab if e == 1 else "x[%s]^%d" % (lab, e))
        return "*".join(parts) or "1"

    if as_json:
        payload = {
            "generators": list(names),
            "Btilde": [list(r) for r in U["Btilde"]],
            "y0": [list(v.exps) for v in U["y0"]],
            "relations": {
                "x[%s]*x[%s]" % pair: [term_text(t) for t in terms]
                for pair, terms in sorted(rel.items())
            },
        }
        _emit(json.dumps(payload, sort_keys=True) + "\n", out)
        return
    lines = ["generators: %s" % ", ".join(names)]
    for j, v in enumerate(U["y0"]):
        lines.append("y[%d;0] = %s" % (j + 1, v.text()))
    for pair, terms in sorted(rel.items()):
        lines.append(
            "x[%s]*x[%s] = %s + %s"
            % (pair[0], pair[1], term_text(terms[0]), term_text(terms[1]))
        )
    _emit("\n".join(lines) + "\n", out)


@main.command()
@_b_options
@click.option(
    "--target",
    default="principal",
    type=click.Choice(["principal", "trivial", "universal"]),
)
@click.option("--out", default=None)
def specialize(type_name, matrix_file, rank2, target, out):
    """Verified coefficient specialization from universal coefficients."""
    B, _ = _load_b(type_name, matrix_file, rank2)
    U = _universal_build(B)
    sp = finite_type.specialization_construct(U, target)
    lines = ["target=%s seeds=%d checked=%d" % (target, sp["seeds"], sp["checked"])]
    for name in sorted(sp["phi"]):
        lines.append("phi(%s) = %s" % (name, _value_text(sp["phi"][name])))
    _emit("\n".join(lines) + "\n", out)


@main.command()
@_b_options
@click.option("--cap", default=500, type=click.IntRange(min=1))
@click.option("--depth", default=None, type=click.IntRange(min=0))
@click.option("--out", default=None)
def check(type_name, matrix_file, rank2, cap, depth, out):
    """Structural-property audit over an enumerated pattern."""
    B, _ = _load_b(type_name, matrix_file, rank2)
    res = principal.conjecture_suite(B, max_seeds=cap, max_depth=depth)
    lines = [
        "seeds=%d complete=%s" % (res["seeds"], "true" if res["complete"] else "false")
    ]
    bad = 0
    for chk in res["checks"]:
        bad += len(chk["violations"])
        lines.append(
            "%s: instances=%d violations=%d"
            % (chk["name"], chk["instances"], len(chk["violations"]))
        )
    _emit("\n".join(lines) + "\n", out)
    if bad:
        raise SystemExit(1)


def run():
    try:
        main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo("usage error: %s" % exc.format_message(), err=True)
        sys.exit(2)
    except (InvalidDirection, MalformedMatrix, NotSkewSymmetrizable) as exc:
        click.echo("usage error: %s" % exc, err=True)
        sys.exit(2)
    except click.exceptions.Abort:
        sys.exit(2)
    except (
        CrossCheckFailure,
        AssertionError,
        ArithmeticError,
        ValueError,
        RuntimeError,
    ) as exc:
        click.echo("%s: %s" % (type(exc).__name__, exc), err=True)
        sys.exit(1)


if __name__ == "__main__":
    run()
