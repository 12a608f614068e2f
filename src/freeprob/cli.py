"""Command-line front end.

Every subcommand prints a single JSON document (default) whose "config" field
echoes every parsed argument, or pretty text with the same config in a
comment header; commands whose result is a table also offer CSV.  Exit
codes: 0 success, 1 a refusal, that is any FreeprobError (usage, domain,
bound and precision errors, with a structured error object on stderr), 2
mathematical findings (a FAIL verdict or a failed verification check) so
pipelines can tell discoveries from crashes.  Any other exception is a bug
and ends in a traceback.  Output is byte-deterministic given the arguments
and seed.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import sys
from dataclasses import astuple, fields
from fractions import Fraction
from functools import lru_cache

from . import chains as chains_mod
from . import cumulants as cumulants_mod
from . import hopf as hopf_mod
from . import partitions as partitions_mod
from . import trees as trees_mod
from .errors import BoundExceededError, FreeprobError, InputError, UsageError
from .transforms import (
    G_eval,
    PrecisionError,
    cf_eval,
    check_steps,
    decomposition_residual,
    density_eval,
    f_trajectory,
    fid_test,
    formal_phi_ode_check,
    mu_c_parameter,
    riccati_residual,
    voiculescu_phi,
)
from .transforms.analytic import CF_MIN_IM, MAX_CF_SAMPLES, MAX_SAMPLES

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDING = 2


def _parse_seq(text: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _finite(text: str) -> float:
    """An option's float, refused unless finite (argparse's own message otherwise)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


# Grid point bounds for `transform`: phi is the slowest op, at up to 72 ms a
# point over a whole grid in binary64 (c = 9/10 near the axis; 400 points
# took 28 s) and up to 1.2 s at --dps 30 (25 points took 25-26 s), so the
# largest admitted grid takes about 30 s (2-core machine).  --dps is held at
# 30, where that was measured (a phi point costs 2 s at --dps 120), and >= 1.
MAX_GRID_POINTS = 400
MAX_GRID_POINTS_DPS = 25
MAX_DPS = 30
# `sequence catalan --max`: C_n has about 0.6 n digits, and printing them
# all costs about (--max)^3; 15,000 took 7.6-8.2 s and 115-309 MB in a fresh
# process (2-core machine, any format), 20,000 took 18-19 s and 422 MB.
MAX_CATALAN_ORDER = 15_000


def _parse_grid(spec: str, max_points: int) -> list[complex]:
    """'x0:x1:nx,y0:y1:ny' -> row-major complex grid points, at most max_points."""
    try:
        xs_spec, ys_spec = spec.split(",")
        x0, x1, nx = xs_spec.split(":")
        y0, y1, ny = ys_spec.split(":")
        nx, ny = int(nx), int(ny)
        x0, x1, y0, y1 = float(x0), float(x1), float(y0), float(y1)
    except ValueError as exc:
        raise InputError(f"malformed grid spec {spec!r}; expected x0:x1:nx,y0:y1:ny") from exc
    if nx < 1 or ny < 1:
        raise InputError(f"grid spec {spec!r} needs at least one point on each axis")
    if nx * ny > max_points:
        raise BoundExceededError(f"grid bound is nx * ny <= {max_points} points at this precision")
    xs = [x0 + (x1 - x0) * i / max(nx - 1, 1) for i in range(nx)]
    ys = [y0 + (y1 - y0) * j / max(ny - 1, 1) for j in range(ny)]
    if not all(map(math.isfinite, xs + ys)):
        raise InputError(f"grid spec {spec!r} has a value that is not a finite number")
    return [complex(x, y) for y in ys for x in xs]


def _parse_range(spec: str, limit: int) -> list[float]:
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise InputError(f"malformed range spec {spec!r}; expected lo:hi:step") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise InputError(f"range spec {spec!r} has a value that is not a finite number")
    if step <= 0:
        raise InputError("range step must be positive")
    check_steps(lo, hi, step, limit)
    out = []
    value = lo
    while value <= hi + 1e-12:
        out.append(round(value, 12))
        value += step
    return out


def _binary64(v: Fraction):
    """float(v), or None (JSON null, an empty CSV field) beyond the binary64 range."""
    try:
        return float(v)
    except OverflowError:
        return None


def _config(args) -> dict:
    """Every parsed argument but the handler; an action joins its command."""
    config = dict(vars(args))
    del config["fn"]
    if "action" in config:
        config["command"] += f" {config.pop('action')}"
    return config


def _exact(v) -> str:
    """str(v), exact for an int or Fraction of any length: Decimal(int) is
    not held to Python's digit limit on converting an int to a string."""
    if isinstance(v, Fraction):
        num = _exact(v.numerator)
        return num if v.denominator == 1 else f"{num}/{_exact(v.denominator)}"
    if isinstance(v, int) and not isinstance(v, bool):
        return str(decimal.Decimal(v))
    return str(v)


def _refuse_non_finite(value, path: str = "result", point: str = "") -> None:
    """Raise PrecisionError at the first float in value that is not finite,
    naming its field and the point, the finite floats beside it: JSON has no
    NaN or Infinity, so no format prints one."""
    if isinstance(value, float) and not math.isfinite(value):
        raise PrecisionError(f"{path} is {value!r}{point}; a non-finite value is not printed")
    if isinstance(value, dict):
        here = [f"{k}={v!r}" for k, v in value.items() if isinstance(v, float) and math.isfinite(v)]
        point = f" at {', '.join(here)}" if here else point
        for key, item in value.items():
            _refuse_non_finite(item, f"{path}.{key}", point)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _refuse_non_finite(item, f"{path}[{i}]", point)


def _emit(args, result, rows=None, header=None) -> None:
    """Print `result` in args.format; csv prints `rows` under `header`.

    Fractions print as "p/q" strings, and they and ints print in full at any
    length (JSON numbers are small ints only); a result holding a non-finite
    float is refused before anything is printed."""
    _refuse_non_finite(result)
    config = _config(args)
    if args.format == "json":
        print(json.dumps({"config": config, "result": result}, sort_keys=True, default=_exact))
    elif args.format == "csv":
        print(f"# config: {json.dumps(config, sort_keys=True, default=_exact)}")
        print(",".join(header))
        for row in rows:
            print(",".join("" if v is None else _exact(v) for v in row))
    else:  # pretty
        print(f"# {json.dumps(config, sort_keys=True, default=_exact)}")
        _pretty(result)


def _pretty(result, indent: str = "") -> None:
    if isinstance(result, dict):
        for key, value in result.items():
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _pretty(value, indent + "  ")
            else:
                print(f"{indent}{key}: {_exact(value)}")
    elif isinstance(result, list):
        for value in result:
            _pretty(value, indent)
    else:
        print(f"{indent}{_exact(result)}")


# ------------------------------------------------------------- subcommands


def _cmd_sequence(args) -> int:
    if args.name == "a000699":
        fc = cumulants_mod.gaussian_free_cumulants(args.max)
        orders = list(range(2, args.max + 1, 2))
        values = [fc[k] for k in orders]
    elif args.name == "shifted":
        s = cumulants_mod.gaussian_shifted_sequence(args.max)
        orders = list(range(0, args.max + 1, 2))
        values = [s[k] for k in orders]
    else:  # catalan
        if args.max < 0:
            raise InputError("--max must be nonnegative")
        if args.max > MAX_CATALAN_ORDER:
            raise BoundExceededError(f"Catalan sequence bound is --max <= {MAX_CATALAN_ORDER}")
        orders = list(range(0, args.max + 1))
        values = [1]
        for n in orders[:-1]:  # C_{n+1} = C_n * 2(2n + 1) / (n + 2)
            values.append(values[-1] * 2 * (2 * n + 1) // (n + 2))
    values = list(map(_exact, values))  # each converted once, in full
    if args.format == "pretty":  # the bare sequence on one line
        result = ",".join(values)
    else:
        result = {"orders": orders, "values": values}
    _emit(args, result, list(zip(orders, values)), ("order", "value"))
    return EXIT_OK


def _cmd_cumulants(args) -> int:
    convert = {
        ("classical", "from-moments"): cumulants_mod.classical_from_moments,
        ("classical", "to-moments"): cumulants_mod.moments_from_classical,
        ("free", "from-moments"): cumulants_mod.free_from_moments,
        ("free", "to-moments"): cumulants_mod.moments_from_free,
        ("boolean", "from-moments"): cumulants_mod.boolean_from_moments,
        ("boolean", "to-moments"): cumulants_mod.moments_from_boolean,
    }[(args.kind, args.direction)]
    out = convert(args.seq)
    decimal = [_binary64(v) for v in out]
    rows = list(zip(range(len(out)), out, decimal))
    result = {"values": out, "decimal": decimal}
    _emit(args, result, rows, ("n", "value", "decimal"))
    return EXIT_OK


def _cmd_chains(args) -> int:
    if args.action == "return-time":
        summary = chains_mod.return_time_sum(args.n, args.model)
        result = {
            "total": summary.total,
            "states": summary.state_count,
            "expected_return": summary.expected_return,
        }
        _emit(args, result, [tuple(result.values())], tuple(result))
        return EXIT_OK
    matrix = chains_mod.transition_matrix(args.model, args.n)
    if args.action == "stationary":
        weights = chains_mod.stationary(matrix).weights
        rows = [(s, weights[s], float(weights[s])) for s in matrix.states]
        result = {"states": matrix.states, "weights": weights}
        _emit(args, result, rows, ("state", "weight", "decimal"))
    elif args.action == "matrix":
        edges = [
            {"from": state, "to": matrix.states[j], "weight": weight}
            for state, row in zip(matrix.states, matrix.rows)
            for j, weight in row.items()
        ]
        rows = [(e["from"], e["to"], e["weight"]) for e in edges]
        _emit(args, {"states": matrix.states, "edges": edges}, rows, ("from", "to", "weight"))
    else:  # simulate
        empirical = chains_mod.simulate(matrix, args.steps, args.seed)
        tv = chains_mod.tv_distance(empirical, chains_mod.stationary(matrix))
        result = {
            "frequencies": dict(sorted(empirical.weights.items())),
            "tv_distance_to_stationary": float(tv),
            "generator": "random.Random (Mersenne Twister)",
        }
        _emit(args, result)
    return EXIT_OK


def _cmd_dyck(args) -> int:
    if args.action == "mu":
        comb = trees_mod.mu_operator(args.word)
        _emit(args, comb, list(comb.items()), ("word", "coefficient"))
    elif args.action == "factorial":
        _emit(args, {"factorial": trees_mod.dyck_factorial(args.word)})
    elif args.action == "words":
        words = trees_mod.enumerate_dyck_words(args.n)
        _emit(args, words, [(w,) for w in words], ("word",))
    else:  # matrix
        words, adjacency = trees_mod.nt_adjacency(args.n)
        result = {
            "words": words,
            "adjacency": adjacency,
            "row_divisor": args.n + 1,
        }
        rows = [
            (words[i], words[j], adjacency[i][j])
            for i in range(len(words))
            for j in range(len(words))
            if adjacency[i][j]
        ]
        _emit(args, result, rows, ("from", "to", "count"))
    return EXIT_OK


def _tree(text: str):
    try:
        return hopf_mod.tree_from_nested(json.loads(text))
    except json.JSONDecodeError as exc:
        raise InputError(f"tree is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError("tree nested too deeply to read") from None


def _terms(comb: dict) -> dict:
    """A linear combination of trees or of (left, right) tree pairs as
    {nested-list JSON of the term: coefficient string}, sorted by key."""

    def nested(term):
        if isinstance(term, tuple):
            return [hopf_mod.tree_to_nested(t) for t in term]
        return hopf_mod.tree_to_nested(term)

    return dict(sorted((json.dumps(nested(term)), str(coef)) for term, coef in comb.items()))


def _cmd_hopf(args) -> int:
    if args.action == "product":
        _emit(args, _terms(hopf_mod.lr_product(_tree(args.left), _tree(args.right))))
    elif args.action == "hilbert":
        if args.max < 0:
            raise InputError("--max must be nonnegative")
        # from the largest degree down, so the enumeration bound refuses first
        dims = [hopf_mod.hilbert_dimension(n) for n in range(args.max, -1, -1)][::-1]
        _emit(args, dims, list(enumerate(dims)), ("n", "dimension"))
    elif args.action == "laws":
        results = {
            "coassociativity": bool(hopf_mod.coassociativity_check(args.max_size)),
            "counit": bool(hopf_mod.counit_check(args.max_size)),
            "antipode": bool(hopf_mod.antipode_check(args.max_size)),
        }
        _emit(args, results)
        if not all(results.values()):
            return EXIT_FINDING
    else:
        op = {
            "coproduct": hopf_mod.lr_coproduct,
            "bf-coproduct": hopf_mod.bf_coproduct,
            "antipode": hopf_mod.antipode,
        }[args.action]
        _emit(args, _terms(op(_tree(args.tree))))
    return EXIT_OK


def _cmd_fid(args) -> int:
    report = fid_test(args.c, args.order)
    _emit(args, report.to_json())
    return EXIT_FINDING if report.verdict == "FAIL" else EXIT_OK


def _parts(w) -> tuple[float, float]:
    w = complex(w)
    return w.real, w.imag


# op -> (csv columns after re_z, im_z; the values at one point).  The
# evaluators are looked up when called, so wrappers installed on this
# module's names see every call.
_TRANSFORM_OPS = {
    "g": (("re_g", "im_g"), lambda c, z, a: _parts(G_eval(c, z, dps=a.dps))),
    "cf": (("re_g", "im_g"), lambda c, z, a: _parts(cf_eval(c, z, tol=a.tol, dps=a.dps))),
    "riccati": (
        ("g_residual", "f_residual"),
        lambda c, z, a: astuple(riccati_residual(c, z, step=a.step, dps=a.dps)),
    ),
    "decomposition": (("residual",), lambda c, z, a: (decomposition_residual(c, z, dps=a.dps),)),
    "phi": (
        ("re_phi", "im_phi"),
        lambda c, z, a: _parts(voiculescu_phi(c, z, tol=a.tol, dps=a.dps)),
    ),
}


def _cmd_transform(args) -> int:
    c = mu_c_parameter(args.c, binary64=True)
    columns, evaluate = _TRANSFORM_OPS[args.op]
    header = ("re_z", "im_z", *columns)
    if args.dps is not None and not 1 <= args.dps <= MAX_DPS:
        raise BoundExceededError(f"precision bound is 1 <= --dps <= {MAX_DPS}")
    grid = _parse_grid(args.grid, MAX_GRID_POINTS if args.dps is None else MAX_GRID_POINTS_DPS)
    rows = [(z.real, z.imag, *evaluate(c, z, args)) for z in grid]
    _emit(args, [dict(zip(header, row)) for row in rows], rows, header)
    # a free-infinitely-divisible mu_c (c <= 0) has Im phi <= 0 on the upper half-plane
    finding = args.op == "phi" and c <= 0 and any(row[3] > 1e-8 for row in rows)
    return EXIT_FINDING if finding else EXIT_OK


def _cmd_trajectory(args) -> int:
    report = f_trajectory(args.c, r_lo=args.r_lo, r_hi=args.r_hi)
    # c, r_lo and r_hi are echoed in the config; the raw samples stay off the wire
    result = {
        f.name: getattr(report, f.name)
        for f in fields(report)
        if f.name not in ("c", "r_lo", "r_hi", "samples")
    }
    _emit(args, result)
    return EXIT_OK if report.all_ok else EXIT_FINDING


def _cmd_density(args) -> int:
    c = mu_c_parameter(args.c, binary64=True)
    # from Im z = CF_MIN_IM up a point may run the continued fraction, which
    # costs far more than the series; the range is bounded before any point
    limit = MAX_CF_SAMPLES if args.eps >= CF_MIN_IM else MAX_SAMPLES
    rows = [
        (u, density_eval(c, u, eps=args.eps, richardson=args.richardson))
        for u in _parse_range(args.range, limit)
    ]
    _emit(args, [{"u": u, "density": d} for u, d in rows], rows, ("u", "density"))
    return EXIT_OK


# ------------------------------------------------------------------- checks


def _desk_checks(level: str):
    """Curated invariant suite; each entry returns True on success."""
    from fractions import Fraction as F

    deep = level == "full"

    def seq_triple_agreement():
        fc = cumulants_mod.gaussian_free_cumulants(12)
        for two_n in range(2, 13, 2):
            if partitions_mod.count_connected_pairings(two_n) != fc[two_n]:
                return False
        s = cumulants_mod.gaussian_shifted_sequence(12)
        return all(trees_mod.s_via_trees(n) == s[2 * n] for n in range(0, 7))

    def pairing_counts():
        top = 12 if deep else 10
        return all(
            len(partitions_mod.enumerate_pairings(n)) == math.prod(range(n - 1, 0, -2))
            for n in range(2, top + 1, 2)
        )

    def moebius_sums():
        ok = True
        for n in range(2, 6):
            for kind in partitions_mod.LatticeKind:
                lattice = partitions_mod.enumerate_partitions(n, kind)
                top = partitions_mod.top_partition(n)
                ok &= (
                    sum(partitions_mod.moebius(kind, s, top) for s in lattice) == 0
                )
        return ok

    def cumulant_oracles():
        m = [F(1), F(1, 2), F(1), F(2), F(9, 2), F(12), F(31)]
        if deep:
            m = m + [F(85), F(248)]
        for flavour, series in (
            ("classical", cumulants_mod.classical_from_moments),
            ("free", cumulants_mod.free_from_moments),
            ("boolean", cumulants_mod.boolean_from_moments),
        ):
            if series(m) != cumulants_mod.cumulants_via_lattice(m, flavour):
                return False
        return True

    def gbm_identity():
        fc = [F(x) for x in cumulants_mod.gaussian_free_cumulants(10)]
        for s in (F(1, 2), F(3)):
            scaled = [s * x for x in fc]
            m = cumulants_mod.moments_from_free(scaled)
            for two_n in range(2, 11, 2):
                spec = cumulants_mod.WeightSpec(cumulants_mod.WeightKind.CC_POWER, s)
                if cumulants_mod.weighted_pairing_moment(two_n, spec) != m[two_n]:
                    return False
        return True

    def chain_stationary():
        # stationary builds the law 1/w! and certifies it exactly, or raises
        top = 5 if deep else 4
        for n in range(1, top + 1):
            for model in ("nt", "mtr"):
                chains_mod.stationary(chains_mod.transition_matrix(model, n))
        return True

    def hopf_laws():
        size = 4 if deep else 3
        return (
            bool(hopf_mod.coassociativity_check(3))
            and bool(hopf_mod.counit_check(size))
            and bool(hopf_mod.antipode_check(size))
            and [hopf_mod.hilbert_dimension(n) for n in range(4)] == [1, 1, 4, 27]
        )

    def dyck_mu():
        ok = trees_mod.mu_operator("UUDUDD") == {"UUDUDD": 1, "UUDDUD": 2, "UDUDUD": 1}
        for n in range(0, 6):
            for w in trees_mod.enumerate_dyck_words(n):
                ok &= sum(trees_mod.mu_operator(w).values()) == n + 1
        return ok

    def fid_gaussian():
        order = 120 if deep else 60
        return fid_test(F(0), order).verdict == "PASS"

    def formal_ode():
        return bool(formal_phi_ode_check(12))

    def riccati():
        for c in (F(-1, 2), F(0), F(1, 2)):
            for z in (1 + 1j, 2j):
                res = riccati_residual(c, z)
                if res.g_form > 1e-6 or res.f_form > 1e-6:
                    return False
        return True

    def gaussian_density():
        for u in (0.0, 1.0, 2.0):
            expected = math.exp(-u * u / 2) / math.sqrt(2 * math.pi)
            if abs(density_eval(F(0), u, eps=1e-6) - expected) > 1e-4:
                return False
        return True

    return [
        ("partitions: pairing count is (n-1)!!", pairing_counts),
        ("partitions: Moebius sums vanish below top", moebius_sums),
        ("cumulants: series routes match lattice oracles", cumulant_oracles),
        ("cumulants: Gaussian power moments match weighted pairings", gbm_identity),
        ("trees: triple agreement of the shifted sequence", seq_triple_agreement),
        ("trees: mu operator worked example and row sums", dyck_mu),
        ("chains: stationary laws are reciprocal factorials", chain_stationary),
        ("hopf: coalgebra laws and Hilbert dimensions", hopf_laws),
        ("transforms: Gaussian shifted sequence passes positivity", fid_gaussian),
        ("transforms: formal inverse-series identity", formal_ode),
        ("transforms: Riccati residuals below 1e-6", riccati),
        ("transforms: Gaussian density values", gaussian_density),
    ]


def _cmd_check(args) -> int:
    checks = _desk_checks(args.level)
    if args.target != "all":
        checks = [(name, fn) for name, fn in checks if name.startswith(args.target)]
        if not checks:
            raise InputError(f"no checks for target {args.target!r}")
    results = {name: "ok" if fn() else "FAIL" for name, fn in checks}
    _emit(args, results, sorted(results.items()), ("check", "status"))
    return EXIT_FINDING if "FAIL" in results.values() else EXIT_OK


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# One parser per process: every default is immutable and each parse fills a fresh Namespace.
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freeprob",
        description=(
            "Exact free-cumulant combinatorics, tree/Dyck Markov chains, "
            "Loday-Ronco Hopf algebras, and free-infinite-divisibility tests "
            "for the Askey-Wimp-Kerov measures."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(sub, name, fn, table, help=None):
        """The parser of one command or action; csv only where the result is a table."""
        p = sub.add_parser(name, help=help)
        formats = ("json", "csv", "pretty") if table else ("json", "pretty")
        p.add_argument("--format", choices=formats, default="json", help="output format")
        p.set_defaults(fn=fn)
        return p

    def actions(name, help):
        return commands.add_parser(name, help=help).add_subparsers(dest="action", required=True)

    p = command(commands, "sequence", _cmd_sequence, True, "print a named integer sequence")
    p.add_argument("name", choices=("a000699", "shifted", "catalan"))
    p.add_argument("--max", type=int, default=12, help="maximum order")

    p = command(commands, "cumulants", _cmd_cumulants, True, "moment/cumulant conversions")
    p.add_argument("--kind", choices=("classical", "free", "boolean"), required=True)
    p.add_argument("--direction", choices=("from-moments", "to-moments"), required=True)
    p.add_argument(
        "--seq", type=_parse_seq, required=True, help="comma-separated rationals, e.g. 1,0,1,0,3"
    )

    chains = actions("chains", "move-to-root and Naimi-Trehel chains")
    for action in ("stationary", "matrix", "return-time", "simulate"):
        p = command(chains, action, _cmd_chains, action != "simulate")
        p.add_argument("--model", choices=("nt", "mtr"), default="nt")
        p.add_argument("--n", type=int, required=True)
        if action == "simulate":
            p.add_argument("--steps", type=int, default=100_000)
            p.add_argument("--seed", type=int, default=0)

    dyck = actions("dyck", "Dyck words and the mu operator")
    for action in ("mu", "factorial"):
        command(dyck, action, _cmd_dyck, action == "mu").add_argument("--word", default="")
    for action in ("words", "matrix"):
        command(dyck, action, _cmd_dyck, True).add_argument("--n", type=int, default=3)

    hopf = actions("hopf", "ordered-tree Hopf algebra operations")
    p = command(hopf, "product", _cmd_hopf, False)
    p.add_argument("--left", required=True, help="nested-list tree")
    p.add_argument("--right", required=True, help="nested-list tree")
    for action in ("coproduct", "bf-coproduct", "antipode"):
        p = command(hopf, action, _cmd_hopf, False)
        p.add_argument("--tree", required=True, help="nested-list tree, e.g. [3,[1],[2]]")
    p = command(hopf, "hilbert", _cmd_hopf, True)
    p.add_argument("--max", type=int, default=4, help="maximum degree")
    p = command(hopf, "laws", _cmd_hopf, False)
    p.add_argument("--max-size", type=int, default=3, help="maximum tree size")

    p = command(commands, "fid", _cmd_fid, False, "free-infinite-divisibility Hankel test")
    p.add_argument("--c", required=True, help="rational parameter, e.g. 9/10")
    p.add_argument("--order", type=int, default=200, help="highest shifted-sequence index")

    p = command(
        commands, "transform", _cmd_transform, True, "evaluate transforms / residuals on a grid"
    )
    p.add_argument("--c", required=True)
    p.add_argument("--grid", default="-2:2:5,0.6:3:5", help="x0:x1:nx,y0:y1:ny")
    p.add_argument("--op", choices=tuple(_TRANSFORM_OPS), default="g")
    p.add_argument("--step", type=_finite, default=1e-5, help="difference step (riccati)")
    p.add_argument("--tol", type=_finite, default=1e-11, help="tolerance (cf and phi ops)")
    p.add_argument("--dps", type=int, default=None, help="extended precision digits")

    p = command(
        commands, "trajectory", _cmd_trajectory, False, "imaginary-axis flow verifier (-1 < c < 0)"
    )
    p.add_argument("--c", required=True)
    p.add_argument("--r-lo", type=_finite, default=-16.0)
    p.add_argument("--r-hi", type=_finite, default=12.0)

    p = command(commands, "density", _cmd_density, True, "density along the real line")
    p.add_argument("--c", required=True)
    p.add_argument("--range", default="-4:4:0.01", help="lo:hi:step")
    p.add_argument("--eps", type=_finite, default=1e-6)
    p.add_argument("--richardson", action="store_true")

    p = command(commands, "check", _cmd_check, True, "run the invariant suite")
    p.add_argument("target", nargs="?", default="all")
    p.add_argument("--level", choices=("desk", "full"), default="desk")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader went away (`| head`): send the rest of stdout, and the
        # flush at exit, to devnull so nothing is printed about it.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except FreeprobError as exc:
        print(
            json.dumps(
                {"error": {"type": type(exc).__name__, "message": str(exc)}}, sort_keys=True
            ),
            file=sys.stderr,
        )
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
